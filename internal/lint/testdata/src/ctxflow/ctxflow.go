// Package ctxflow is the ctx-flow fixture: a function already holding a
// context.Context must thread it — no fresh Background/TODO roots, no nil
// context arguments.
package ctxflow

import "context"

type DB struct{}

func (db *DB) QueryCtx(ctx context.Context, k int) int { return k }

func helper(ctx context.Context, k int) int { return k }

// ---- findings ----

func freshRoot(ctx context.Context, db *DB) int {
	return db.QueryCtx(context.Background(), 1) // detaches from the caller's deadline
}

func todoRoot(ctx context.Context, db *DB) int {
	return db.QueryCtx(context.TODO(), 1)
}

func nilArg(ctx context.Context, db *DB) int {
	return db.QueryCtx(nil, 1)
}

// ---- clean idioms ----

func guarded(ctx context.Context, db *DB) int {
	if ctx == nil {
		ctx = context.Background() // the sanctioned default for a missing ctx
	}
	return db.QueryCtx(ctx, 1)
}

func threads(ctx context.Context, db *DB) int {
	return helper(ctx, 2) + db.QueryCtx(ctx, 1)
}

func noCtx(db *DB) int {
	// Without a ctx parameter the rule does not apply: there is no caller
	// context to lose.
	return db.QueryCtx(context.Background(), 1)
}

// ---- suppression ----

func suppressed(ctx context.Context, db *DB) int {
	return db.QueryCtx(nil, 2) //lint:ignore ctx-flow exercising the callee's nil-ctx default deliberately
}
