package core

import "sync"

// sessionPool is the free list behind AcquireSession/Release: a
// mutex-guarded stack of idle sessions. It exists for callers that check
// sessions in and out per unit of work (the HTTP serving layer checks one
// out per request) rather than pinning one session per long-lived worker
// goroutine. Reuse matters because a Session carries a pathnet Querier
// whose Dijkstra scratch (epoch-stamped distance/visited arrays sized to
// the pathnet) is expensive to allocate compared to one query's work.
//
// The list only ever grows to the peak number of concurrently checked-out
// sessions, which the serving layer already bounds with admission control,
// so no eviction policy is needed.
type sessionPool struct {
	mu   sync.Mutex
	free []*Session
}

// AcquireSession checks an idle session out of the database's session pool,
// creating a fresh one when the pool is empty. Per-request deadlines are
// passed to each query, not stored in the session. Pair every acquire with
// Release — an unreleased session is not leaked (it is just garbage), but
// its scratch allocations are lost to future requests.
//
// Like every Session, a pooled session is owned by one goroutine between
// Acquire and Release.
func (db *TerrainDB) AcquireSession() *Session {
	p := &db.sessions
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.mu.Unlock()
		return s
	}
	p.mu.Unlock()
	return db.NewSession()
}

// Release returns a session obtained from AcquireSession to the pool. The
// session's per-query accounting is reset by the next query's beginQuery;
// the settings a caller may have flipped (tracing) are cleared here so one
// request's debugging never leaks into another's. Releasing nil is a no-op;
// a released session must not be used again until re-acquired.
func (db *TerrainDB) Release(s *Session) {
	if s == nil {
		return
	}
	s.tracing = false
	p := &db.sessions
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}
