// Package server is the ctx-background fixture: the rule scopes on the
// import path, so this directory (…/ctxbackground/internal/server) stands
// in for internal/server. Handlers
// must derive every context from the request; minting a root context
// detaches the query from client disconnects, deadlines and drain.
package server

import (
	stdctx "context"
	"net/http"
	"time"
)

func badHandler(w http.ResponseWriter, r *http.Request) {
	ctx := stdctx.Background() // orphaned root: ignores the request entirely
	_ = ctx
	todo := stdctx.TODO() // TODO is the same orphan with a different name
	_ = todo
	// The alias does not launder the call: resolution is by type info.
	ctx2, cancel := stdctx.WithTimeout(stdctx.Background(), time.Second)
	defer cancel()
	_ = ctx2
}

func goodHandler(w http.ResponseWriter, r *http.Request) {
	// The sanctioned shape: every context descends from the request.
	ctx, cancel := stdctx.WithTimeout(r.Context(), time.Second)
	defer cancel()
	_ = ctx
}

// background is a same-name decoy: a local function named Background is not
// the context package's root constructor.
type decoy struct{}

func (decoy) Background() int { return 0 }

func goodDecoy() {
	var d decoy
	_ = d.Background()
}

func suppressed() {
	//lint:ignore ctx-background fixture exercises the escape hatch
	_ = stdctx.Background()
}
