// Package pinrelease is the pin-release fixture: every acquired epoch
// pin and pooled session must reach its matching release on all paths out
// of the acquiring function. The local types model the real
// objstore.Store / core.TerrainDB protocols — the rule matches by receiver
// type and method name, which is what lets this fixture stay
// self-contained.
package pinrelease

type Epoch struct{ refs int }

func (e *Epoch) Release()     {}
func (e *Epoch) Table() []int { return nil }

type Store struct{}

func (s *Store) Pin() *Epoch { return &Epoch{} }

type Session struct{ Data []byte }

type TerrainDB struct{}

func (db *TerrainDB) AcquireSession() *Session { return &Session{} }
func (db *TerrainDB) Release(s *Session)       {}

// ---- findings ----

func leakOnEarlyReturn(s *Store, cond bool) int {
	e := s.Pin()
	if cond {
		return 0 // e is still pinned here
	}
	e.Release()
	return 1
}

func leakSession(db *TerrainDB, n int) int {
	sess := db.AcquireSession()
	if n > 0 {
		return n // sess never goes back to the pool
	}
	db.Release(sess)
	return 0
}

func heldAcrossCallback(db *TerrainDB, fn func([]byte)) {
	sess := db.AcquireSession()
	fn(sess.Data) // a panicking fn leaks the session: the Release below never runs
	db.Release(sess)
}

func discarded(s *Store) {
	s.Pin()     // result not captured
	_ = s.Pin() // blank assignment is the same leak
}

func leakInLoop(s *Store, ids []int) int {
	n := 0
	for range ids {
		e := s.Pin()
		n += len(e.Table())
		// missing Release: the next iteration pins a fresh epoch
	}
	return n
}

func leakAtPanic(s *Store, bad bool) {
	e := s.Pin()
	if bad {
		panic("pinrelease: invariant broken") // unwinds with e pinned
	}
	e.Release()
}

// ---- clean idioms ----

func deferRelease(s *Store) []int {
	e := s.Pin()
	defer e.Release()
	return e.Table()
}

func releaseAllPaths(db *TerrainDB, cond bool) int {
	sess := db.AcquireSession()
	if cond {
		db.Release(sess)
		return 0
	}
	n := len(sess.Data)
	db.Release(sess)
	return n
}

func ownershipReturn(s *Store) *Epoch {
	e := s.Pin()
	return e // the caller owns the pin now
}

type holder struct{ view *Epoch }

func (h *holder) begin(s *Store) {
	h.view = s.Pin() // stored in a field: released by the owner's teardown
}

func deferClosure(db *TerrainDB) *Session {
	sess := db.AcquireSession()
	defer func() { db.Release(sess) }()
	return nil
}

func staticCallsWhileHeld(s *Store) int {
	e := s.Pin()
	n := len(e.Table()) // method calls on the held value keep ownership
	e.Release()
	return n
}

// ---- suppression ----

func suppressed(s *Store, cond bool) {
	e := s.Pin() //lint:ignore pin-release fixture demonstrates the escape hatch
	if cond {
		return
	}
	e.Release()
}
