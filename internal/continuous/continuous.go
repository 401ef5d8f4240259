// Package continuous is the standing-query subsystem: a client registers a
// surface k-NN query once, receives its initial top-k, and thereafter gets
// answers for a moving query point at far below one engine run per move.
//
// Three mechanisms carry the load:
//
//   - Safe regions (core.SafeRegion): every re-evaluation certifies a
//     planar disc inside which the top-k — IDs and order — is provably
//     stable. A move within the disc is answered from the cached result
//     with zero engine work: no session, no I/O, no Dijkstra relaxation.
//   - Epoch invalidation: the object store announces every published epoch
//     (objstore.Subscribe) with the planar footprint of the touched
//     objects. A subscription is invalidated only when a touched object is
//     one of its neighbours or falls inside its guard disc (the step-3
//     search radius plus the move budget); provably unaffected
//     subscriptions are re-stamped to the new epoch, keeping their cached
//     answer — still bit-identical to a fresh query — servable. Events
//     without region information invalidate everything (conservative).
//   - Stripe batching: concurrently-due re-evaluations whose search
//     regions overlap are coalesced into one stripe sharing a single
//     session checkout, so a burst of co-located movers pays the session
//     and LOD/SDN warm-up once.
//
// The subscription table is bounded: beyond MaxSubscriptions the least
// recently used subscription is evicted (every insert has a reachable evict
// path — the sklint sub-unregister rule enforces this shape). All answers
// are keyed by epoch: a cached result is served only when its epoch equals
// the store's current epoch, mirroring the server's epoch-prefixed result
// cache, so an invalidated subscription can never serve a stale top-k.
package continuous

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/objstore"
	"surfknn/internal/obs"
)

// ErrUnknownSubscription is returned for an id that is not (or no longer —
// unsubscribed or evicted) in the table.
var ErrUnknownSubscription = errors.New("continuous: unknown subscription")

// ErrClosed is returned by operations on a closed Monitor.
var ErrClosed = errors.New("continuous: monitor closed")

// DefaultMaxSubscriptions bounds the subscription table when Config leaves
// MaxSubscriptions zero.
const DefaultMaxSubscriptions = 4096

// Config tunes a Monitor. The zero value is production-ready.
type Config struct {
	// MaxSubscriptions bounds the subscription table; beyond it the least
	// recently used subscription is evicted. Default 4096.
	MaxSubscriptions int
	// CoalesceWindow is how long a stripe leader waits for overlapping
	// re-evaluations to join its stripe before running it. Zero (the
	// default) runs immediately — stripes then form only from already-
	// concurrent arrivals.
	CoalesceWindow time.Duration
	// Stats receives the subsystem metrics; nil creates a private group.
	Stats *obs.ContinuousStats
}

func (c Config) withDefaults() Config {
	if c.MaxSubscriptions <= 0 {
		c.MaxSubscriptions = DefaultMaxSubscriptions
	}
	if c.Stats == nil {
		c.Stats = obs.NewContinuousStats()
	}
	return c
}

// sub is one standing query. All fields are guarded by Monitor.mu.
type sub struct {
	id     uint64
	k      int
	sched  core.Schedule
	opt    core.Options
	anchor mesh.SurfacePoint // point the cached answer was computed at
	region core.SafeRegion   // safe region around anchor
	epoch  uint64            // epoch the cached answer is valid for
	valid  bool              // false once an update may have changed the answer
	ns     []core.Neighbor   // cached top-k, monitor-owned copy
	el     *list.Element     // position in the LRU list
}

func (s *sub) hasNeighbor(id int64) bool {
	for i := range s.ns {
		if s.ns[i].Object.ID == id {
			return true
		}
	}
	return false
}

// Monitor tracks live subscriptions over one TerrainDB. Safe for concurrent
// use. Create with New, stop with Close.
type Monitor struct {
	db    *core.TerrainDB
	cfg   Config
	stats *obs.ContinuousStats
	bat   *batcher

	cancelStore func() // deregisters the objstore listener

	mu     sync.Mutex
	subs   map[uint64]*sub
	lru    *list.List // front = most recently used; back = eviction victim
	nextID uint64
	closed bool
}

// New builds a monitor over db, which must carry an object store (objects
// installed via SetObjects or a snapshot).
func New(db *core.TerrainDB, cfg Config) (*Monitor, error) {
	store := db.ObjectStore()
	if store == nil {
		return nil, fmt.Errorf("continuous: database has no object store (call SetObjects)")
	}
	cfg = cfg.withDefaults()
	m := &Monitor{
		db:    db,
		cfg:   cfg,
		stats: cfg.Stats,
		subs:  make(map[uint64]*sub),
		lru:   list.New(),
	}
	m.bat = &batcher{db: db, window: cfg.CoalesceWindow, stats: cfg.Stats}
	m.cancelStore = store.Subscribe(m.onUpdate)
	return m, nil
}

// Stats returns the monitor's metric group.
func (m *Monitor) Stats() *obs.ContinuousStats { return m.stats }

// Len returns the number of live subscriptions.
func (m *Monitor) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.subs)
}

// Close deregisters the store listener and drops every subscription.
// Subsequent calls error with ErrClosed.
func (m *Monitor) Close() {
	m.cancelStore()
	m.mu.Lock()
	m.closed = true
	for id := range m.subs {
		delete(m.subs, id)
	}
	m.lru.Init()
	m.stats.Subscriptions.Set(0)
	m.mu.Unlock()
}

// Subscribe registers a standing k-NN query at q and returns its id, the
// initial result and its safe region. The result's Neighbors are owned by
// the caller.
func (m *Monitor) Subscribe(ctx context.Context, q mesh.SurfacePoint, k int, sched core.Schedule, opt core.Options) (uint64, core.Result, core.SafeRegion, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, core.Result{}, core.SafeRegion{}, ErrClosed
	}
	m.mu.Unlock()

	out := m.bat.eval(evalReq{ctx: ctx, q: q, k: k, sched: sched, opt: opt, hint: pointMBR(q.XY())})
	if out.err != nil {
		return 0, core.Result{}, core.SafeRegion{}, out.err
	}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return 0, core.Result{}, core.SafeRegion{}, ErrClosed
	}
	m.nextID++
	id := m.nextID
	s := &sub{id: id, k: k, sched: sched, opt: opt}
	m.storeLocked(s, q, out)
	m.subs[id] = s
	s.el = m.lru.PushFront(s)
	m.evictLocked()
	m.stats.Subscriptions.Set(int64(len(m.subs)))
	m.mu.Unlock()
	return id, out.res, out.region, nil
}

// storeLocked installs a fresh evaluation into the subscription. The
// neighbour cache is copied into the sub-owned buffer so the caller may do
// as it pleases with the returned result.
func (m *Monitor) storeLocked(s *sub, q mesh.SurfacePoint, out evalOut) {
	s.anchor = q
	s.region = out.region
	s.epoch = out.res.Epoch
	s.ns = append(s.ns[:0], out.res.Neighbors...)
	s.valid = true
}

// evictLocked enforces the table bound by dropping least-recently-used
// subscriptions. Caller holds m.mu.
func (m *Monitor) evictLocked() {
	for len(m.subs) > m.cfg.MaxSubscriptions {
		victim := m.lru.Back()
		if victim == nil {
			return
		}
		v := m.lru.Remove(victim).(*sub)
		delete(m.subs, v.id)
		m.stats.Evictions.Add(1)
	}
}

// TryMove attempts the zero-cost path for subscription id moving to p: if
// the cached answer is valid at the store's current epoch and p lies inside
// the safe region, it returns the cached result (hit=true) without touching
// the engine — the returned Cost is zero, including its Relaxations.
// Otherwise hit is false and the caller should re-evaluate with Move. An
// unknown id returns hit=false.
func (m *Monitor) TryMove(id uint64, p geom.Vec2) (core.Result, core.SafeRegion, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	if !ok {
		return core.Result{}, core.SafeRegion{}, false
	}
	m.lru.MoveToFront(s.el)
	if !s.valid || s.epoch != m.db.CurrentEpoch() || !s.region.Contains(p) {
		return core.Result{}, core.SafeRegion{}, false
	}
	m.stats.RegionHits.Add(1)
	ns := make([]core.Neighbor, len(s.ns))
	copy(ns, s.ns)
	return core.Result{Neighbors: ns, Epoch: s.epoch}, s.region, true
}

// Move processes subscription id's move to p: the safe-region fast path
// when possible (hit=true), a stripe-batched re-evaluation at p otherwise.
// The re-evaluated answer re-anchors the subscription at p with a fresh
// safe region. An id not in the table returns ErrUnknownSubscription.
func (m *Monitor) Move(ctx context.Context, id uint64, p geom.Vec2) (core.Result, core.SafeRegion, bool, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return core.Result{}, core.SafeRegion{}, false, ErrClosed
	}
	s, ok := m.subs[id]
	if !ok {
		m.mu.Unlock()
		return core.Result{}, core.SafeRegion{}, false, ErrUnknownSubscription
	}
	k, sched, opt, hint := s.k, s.sched, s.opt, s.region.GuardMBR()
	m.mu.Unlock()

	if res, sr, ok := m.TryMove(id, p); ok {
		return res, sr, true, nil
	}
	m.stats.RegionMisses.Add(1)

	q, err := m.db.SurfacePointAt(p)
	if err != nil {
		return core.Result{}, core.SafeRegion{}, false, fmt.Errorf("continuous: move target (%g, %g): %w", p.X, p.Y, err)
	}
	out := m.bat.eval(evalReq{ctx: ctx, q: q, k: k, sched: sched, opt: opt, hint: hint.Union(pointMBR(p))})
	if out.err != nil {
		return core.Result{}, core.SafeRegion{}, false, out.err
	}

	m.mu.Lock()
	// The subscription may have been unsubscribed or evicted while the
	// evaluation ran; the mover still gets its answer, it just is not
	// cached anymore.
	if s, ok := m.subs[id]; ok {
		m.storeLocked(s, q, out)
		m.lru.MoveToFront(s.el)
	}
	m.mu.Unlock()
	return out.res, out.region, false, nil
}

// Unsubscribe removes a subscription, reporting whether it existed.
func (m *Monitor) Unsubscribe(id uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.subs[id]
	if !ok {
		return false
	}
	m.lru.Remove(s.el)
	delete(m.subs, id)
	m.stats.Subscriptions.Set(int64(len(m.subs)))
	return true
}

// onUpdate is the objstore listener: it runs synchronously on the writer's
// goroutine for every published epoch, in epoch order, deciding per
// subscription between invalidation (a touched object is a neighbour or
// inside the guard disc) and re-stamping to the new epoch (provably
// unaffected — the cached answer is still what a fresh query at the new
// epoch would return, bit for bit, because the touched objects were outside
// the query's step-3 enumeration and stay outside its reach).
func (m *Monitor) onUpdate(ev objstore.UpdateEvent) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.subs {
		if !s.valid {
			continue
		}
		affected := false
		for i, id := range ev.IDs {
			if s.hasNeighbor(id) || ev.Points[i].Dist(s.region.Center) <= s.region.Guard {
				affected = true
				break
			}
		}
		switch {
		case affected:
			s.valid = false
			m.stats.Invalidations.Add(1)
		case s.epoch == ev.Prev:
			s.epoch = ev.Epoch
			m.stats.Revalidations.Add(1)
		default:
			// The cached answer predates the epoch this event supersedes (a
			// re-evaluation raced past us): it cannot be re-stamped safely.
			s.valid = false
			m.stats.Invalidations.Add(1)
		}
	}
}

// pointMBR is the degenerate box of a single planar point — the stripe
// hint of an evaluation with no prior search region.
func pointMBR(p geom.Vec2) geom.MBR {
	return geom.MBR{MinX: p.X, MinY: p.Y, MaxX: p.X, MaxY: p.Y}
}
