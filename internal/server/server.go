// Package server is the single-node back end of the surfknn HTTP service:
// the engine over one core.TerrainDB behind the shared front
// (internal/server/front), which owns routing, validation and the wire
// contract and hands this package compiled plans. Built only on the
// standard library.
//
// The engine below was shaped for exactly this sitting-on-top: the
// terrain structures are immutable and the object set is versioned by an
// epoch-based store (internal/objstore), so the server owns one TerrainDB
// and any number of concurrent requests; per-request execution state
// lives in pooled core.Sessions (checked out per request, returned on
// completion), each query pinning one object epoch for its whole run; the
// request context — client disconnect plus a per-request or
// server-default deadline — is threaded through the *Ctx query variants.
// Object updates arrive over HTTP too (POST/DELETE /v1/objects), each
// accepted batch publishing a new epoch; every response carries the epoch
// it was served against in the X-Epoch header.
//
// Around the executor (exec.go) sit the robustness pieces a real service
// needs:
//
//   - admission control: a semaphore bounds concurrent query execution, a
//     bounded wait queue absorbs short bursts, and everything beyond that
//     is shed immediately with 429 + Retry-After (see admission.go);
//   - an LRU result cache keyed by (epoch, route shape, canonical query):
//     within one epoch a query maps to one answer forever, and an update
//     makes stale entries unreachable rather than requiring a purge (see
//     cache.go);
//   - panic recovery, request metrics and JSON access logging
//     (middleware.go);
//   - graceful lifecycle: Shutdown stops accepting and drains in-flight
//     requests under a caller-bounded deadline.
//
// Metrics flow into obs.ServerStats (published by skserve as the
// "surfknn_server" expvar group) beside the engine's obs.Registry.
package server

import (
	"context"
	"io"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"surfknn/internal/continuous"
	"surfknn/internal/core"
	"surfknn/internal/obs"
	"surfknn/internal/server/front"
	"surfknn/internal/sklang"
)

// Config tunes the server. The zero value is production-ready for a small
// deployment; every field has a sensible default.
type Config struct {
	// MaxInFlight bounds concurrently executing queries. Default
	// 2×GOMAXPROCS — queries are CPU-bound with simulated I/O, so a small
	// multiple of the core count keeps the machine busy without thrashing.
	MaxInFlight int
	// QueueDepth bounds requests waiting for an execution slot; beyond it
	// requests are rejected with 429. Default 4×MaxInFlight.
	QueueDepth int
	// QueueWait bounds how long one request may wait in the queue before
	// it is rejected with 429. Default 250ms.
	QueueWait time.Duration
	// DefaultTimeout bounds queries whose request carries no "timeout"
	// field. Default 5s.
	DefaultTimeout time.Duration
	// MaxTimeout caps client-requested timeouts. Default 30s.
	MaxTimeout time.Duration
	// CacheEntries sizes the LRU result cache; negative disables caching.
	// Default 1024.
	CacheEntries int
	// ShardID names the tile this process serves when it is one shard of a
	// tiled deployment (e.g. "tile-0-1"). Empty for a standalone server.
	// Reported by /v1/healthz so a coordinator can verify topology.
	ShardID string
	// AccessLog receives one JSON line per request when non-nil.
	AccessLog io.Writer
	// Stats receives the server metrics; nil creates a private group.
	// Publishing it (as "surfknn_server") is the caller's choice.
	Stats *obs.ServerStats
	// MaxSubscriptions bounds the continuous-query subscription table
	// (POST /v1/subscribe); beyond it the least recently used subscription
	// is evicted. Default continuous.DefaultMaxSubscriptions.
	MaxSubscriptions int
	// CoalesceWindow is how long the continuous-query batcher holds a
	// re-evaluation stripe open for overlapping moves to join. Default 0
	// (coalesce only already-concurrent arrivals).
	CoalesceWindow time.Duration
	// ContinuousStats receives the continuous-query metrics; nil creates a
	// private group. Publishing it (as "surfknn_continuous") is the
	// caller's choice.
	ContinuousStats *obs.ContinuousStats
}

func (c Config) withDefaults() Config {
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 4 * c.MaxInFlight
	}
	if c.QueueDepth < 0 {
		c.QueueDepth = 0
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 250 * time.Millisecond
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 5 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.Stats == nil {
		c.Stats = obs.NewServerStats()
	}
	if c.ContinuousStats == nil {
		c.ContinuousStats = obs.NewContinuousStats()
	}
	return c
}

// Server serves surface k-NN queries over HTTP from one immutable
// TerrainDB. Create with New, expose with Handler or Serve, stop with
// Shutdown.
type Server struct {
	db    *core.TerrainDB
	cfg   Config
	stats *obs.ServerStats
	adm   *admission
	cache *resultCache
	mon   *continuous.Monitor // continuous-query subsystem; nil without an object store
	// terrain is the planner catalog's immutable part (face count, extent
	// area); Catalog adds the live object count.
	terrain sklang.Catalog

	handler http.Handler

	access *front.AccessLog // nil when Config.AccessLog is

	mu   sync.Mutex
	http *http.Server // live listener-facing server; nil before Serve
}

// New builds a server over db, which must already have objects installed
// (SetObjects or a snapshot that carried them). The terrain is never
// mutated; the object set is, through the update endpoints, with each
// batch publishing a new epoch in the database's object store.
func New(db *core.TerrainDB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:      db,
		cfg:     cfg,
		stats:   cfg.Stats,
		access:  front.NewAccessLog(cfg.AccessLog),
		terrain: sklang.Catalog{Faces: db.Mesh.NumFaces(), Area: db.Mesh.Extent().Area()},
	}
	s.adm = newAdmission(cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueWait, s.stats)
	s.cache = newResultCache(cfg.CacheEntries, s.stats)
	// The monitor needs the object store's update feed; a database without
	// one (never the case for a served snapshot) simply has the continuous
	// routes answer 500.
	if mon, err := continuous.New(db, continuous.Config{
		MaxSubscriptions: cfg.MaxSubscriptions,
		CoalesceWindow:   cfg.CoalesceWindow,
		Stats:            cfg.ContinuousStats,
	}); err == nil {
		s.mon = mon
	}

	s.handler = s.instrument(front.Handler(s,
		front.Counters{
			BadRequests: &s.stats.BadRequests,
			TimedOut:    &s.stats.TimedOut,
			Rejected:    &s.stats.Rejected,
		},
		map[string]front.HandlerFunc{
			"POST /v1/subscribe/{id}/move": s.handleMove,
			"DELETE /v1/subscribe/{id}":    s.handleUnsubscribe,
			"POST /v1/shard/knn2d":         s.handleShardKNN2D,
			"POST /v1/shard/range2d":       s.handleShardRange2D,
			"POST /v1/shard/knn":           s.handleShardKNN,
			"POST /v1/shard/ea":            s.handleShardEA,
			"POST /v1/shard/range":         s.handleShardRange,
			"POST /v1/shard/objects":       s.handleShardObjects,
		}))
	return s
}

// Handler returns the server's full handler chain (routing, admission,
// caching, recovery, logging) for mounting on any http.Server — the
// in-process tests drive it through httptest.
func (s *Server) Handler() http.Handler { return s.handler }

// Stats returns the server's metric group.
func (s *Server) Stats() *obs.ServerStats { return s.stats }

// ContinuousStats returns the continuous-query metric group.
func (s *Server) ContinuousStats() *obs.ContinuousStats { return s.cfg.ContinuousStats }

// Serve accepts connections on ln until Shutdown (which makes it return
// http.ErrServerClosed) or a listener error. ReadHeaderTimeout bounds
// slow-loris header dribbling; request bodies are bounded by the front's
// per-route MaxBytesReader.
func (s *Server) Serve(ln net.Listener) error {
	hs := &http.Server{
		Handler:           s.handler,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.mu.Lock()
	s.http = hs
	s.mu.Unlock()
	return hs.Serve(ln)
}

// Shutdown gracefully stops a Serve-ing server: the listener closes
// immediately (new connections are refused), in-flight requests — and the
// query sessions they hold — drain to completion, bounded by ctx's
// deadline. Safe to call before Serve (a no-op) and more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	hs := s.http
	s.mu.Unlock()
	if hs == nil {
		return nil
	}
	return hs.Shutdown(ctx)
}
