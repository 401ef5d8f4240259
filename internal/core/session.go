package core

import (
	"context"
	"errors"
	"math"
	"time"

	"surfknn/internal/geom"
	"surfknn/internal/index"
	"surfknn/internal/mesh"
	"surfknn/internal/multires"
	"surfknn/internal/objstore"
	"surfknn/internal/obs"
	"surfknn/internal/pathnet"
	"surfknn/internal/sdn"
	"surfknn/internal/stats"
	"surfknn/internal/storage"
	"surfknn/internal/workload"
)

// Session is a per-query execution context over a shared TerrainDB. The
// database's terrain structures (mesh, DDM tree, pathnet, MSDN, paged
// stores) are immutable, and the object set is read through an immutable
// objstore.Epoch pinned per query, so any number of sessions can query one
// TerrainDB concurrently — even while a writer publishes object updates;
// everything mutable lives here:
//
//   - the page/node access accounting (the paper's "disk pages accessed"
//     metric), kept per query so concurrent queries cannot race on — or
//     pollute — each other's cost numbers;
//   - a pathnet Querier whose Dijkstra scratch is reused across the many
//     surface-distance evaluations one query performs;
//   - the per-query cost recorder and (when enabled) phase trace.
//
// Cancellation follows the Go context guidance: a context is not stored
// across queries but passed per call — every query method (MR3Ctx, EACtx,
// SurfaceRangeCtx, ...) takes the context that cancels or deadlines that
// one query as its first argument; nil means context.Background().
//
// A Session is owned by one goroutine at a time (it is not internally
// synchronised) but may be reused for any number of consecutive queries.
// Create one per worker with TerrainDB.NewSession, or check one out per
// unit of work with AcquireSession/Release.
type Session struct {
	db   *TerrainDB
	ctx  context.Context // context of the query in flight; set by beginQuery
	path *pathnet.Querier

	io        storage.IOAccount // paged terrain reads (DMTM + SDN stores)
	dxyVisits int64             // R-tree node visits (object index)
	view      *objstore.Epoch   // pinned object epoch of the query in flight

	tracing bool         // record a phase trace for every query
	cost    costRecorder // per-query phase accounting

	// step3Radius is the MR3 step-3 search radius (the step-2 k-th upper
	// bound) of the query in flight, recorded by mr3 for the safe-region
	// computation (safereg.go). Reset at beginQuery; meaningless for other
	// algorithms.
	step3Radius float64

	// Query-path scratch, retained across queries so a warm session answers
	// without allocating. Capacities are ensured in beginQuery (off the
	// annotated hot path); the per-candidate loops then grow only within
	// capacity. Result buffers handed out by endQuery alias this scratch —
	// see the Result doc for the validity contract.
	rk    ranker              // ranking state: candidate slab + ordering scratch
	items []index.Item        // 2-D index results
	objs  []workload.Object   // resolved candidate objects
	knnSc index.Scratch       // R-tree best-first traversal heaps
	est   *multires.Estimator // upper-bound search over the level networks
	sdnSc sdn.Scratch         // lower-bound chain DP scratch
	eaSc  eaState             // EA benchmark top-k scratch

	shipSeen map[int64]struct{} // mergeShipped's duplicate-id filter (shard calls only)
}

// NewSession creates a query context over the database.
func (db *TerrainDB) NewSession() *Session {
	s := &Session{db: db, path: db.Path.NewQuerier()}
	if db.Tree != nil {
		s.est = multires.NewEstimator(db.Tree)
	}
	return s
}

// DB returns the shared database the session queries.
func (s *Session) DB() *TerrainDB { return s.db }

// SetTracing turns per-query phase tracing on or off. While on, every
// Result carries a Trace with one span per query phase and per LOD
// refinement iteration. Traces are also recorded — regardless of this
// switch — while the database's registry has a slow-query log installed,
// so slow entries always include their trace.
func (s *Session) SetTracing(on bool) { s.tracing = on }

// beginQuery resets the per-query accounting and opens the query's cost
// recorder. ctx bounds this query; nil means context.Background() — the one
// place that default is applied, every query method funnels through here.
// Each top-level query method calls it on entry, so a session reused for
// several queries reports each query's cost in isolation — the same numbers
// the paper's one-query-at-a-time harness measured with global counters.
func (s *Session) beginQuery(ctx context.Context, algo string) {
	if ctx == nil {
		ctx = context.Background()
	}
	s.ctx = ctx
	s.io = storage.IOAccount{}
	s.dxyVisits = 0
	s.step3Radius = 0
	s.path.ForgetSource()
	if s.est != nil {
		s.est.ForgetSource()
	}
	s.releaseView() // defensive: a panicked query may have left a pin
	if s.db.store != nil {
		s.view = s.db.store.Pin()
		s.ensureScratch(s.view.Len())
	}
	if reg := s.db.reg; reg != nil {
		reg.QueriesStarted.Add(1)
	}
	var tr *obs.Trace
	if s.tracing || s.db.reg.SlowLogArmed() {
		tr = obs.NewTrace(algo)
	}
	s.cost.reset(tr, s.path.Relaxations())
}

// endQuery closes the query: it finalises the phase breakdown into a Cost,
// feeds the process-wide registry (when the database is instrumented), and
// applies the slow-query log. It returns the assembled Result, passing err
// through unchanged.
func (s *Session) endQuery(algo string, k int, ns []Neighbor, err error) (Result, error) {
	s.closePhase()
	cost := s.cost.finish(s)
	s.observe(algo, k, cost, err)
	var epoch uint64
	if s.view != nil {
		epoch = s.view.Seq()
	}
	s.releaseView()
	if err != nil {
		return Result{}, err
	}
	return Result{Neighbors: ns, Cost: cost, Trace: s.cost.trace, Epoch: epoch}, nil
}

// releaseView unpins the query's object epoch, if any.
func (s *Session) releaseView() {
	if s.view != nil {
		s.view.Release()
		s.view = nil
	}
}

// ensureScratch grows the session's query-path buffers to hold n candidates
// (every 2-D filter yields at most the epoch's live object count). It runs
// at query open, keeping all capacity growth off the annotated hot path.
func (s *Session) ensureScratch(n int) {
	if cap(s.items) < n {
		s.items = make([]index.Item, 0, n)
	}
	if cap(s.objs) < n {
		s.objs = make([]workload.Object, 0, n)
	}
	s.rk.ensure(n)
}

// viewObjectsInto resolves R-tree items to objects through the pinned
// epoch — every candidate a query ranks comes from the one version it
// pinned — filling dst (truncated first). dst must have capacity for every
// resolved item; the query path passes s.objs, sized by ensureScratch.
func (s *Session) viewObjectsInto(items []index.Item, dst []workload.Object) []workload.Object {
	out := dst[:0]
	for _, it := range items {
		if o, ok := s.view.Object(it.ID); ok {
			n := len(out)
			out = out[:n+1]
			out[n] = o
		}
	}
	return out
}

// observe reports one finished query to the instrumented registry and the
// slow-query log. No-op on an uninstrumented database.
func (s *Session) observe(algo string, k int, cost stats.Cost, err error) {
	reg := s.db.reg
	if reg == nil {
		return
	}
	t := cost.Total()
	phases := make([]obs.PhaseObservation, len(cost.Phases))
	for i, p := range cost.Phases {
		phases[i] = obs.PhaseObservation{Name: p.Phase, Wall: p.Wall}
	}
	reg.ObserveQuery(obs.QueryObservation{
		Cancelled:           err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)),
		Failed:              err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded),
		CPU:                 cost.CPU,
		RTreeVisits:         t.RTreeVisits,
		DijkstraRelaxations: s.path.Relaxations() - s.cost.relaxBase,
		UpperBounds:         int64(t.UpperBounds),
		LowerBounds:         int64(t.LowerBounds),
		Iterations:          int64(t.Iterations),
		EnvelopeFloor:       int64(t.Envelope.Floor),
		EnvelopeLine:        int64(t.Envelope.Line),
		EnvelopeWitness:     int64(t.Envelope.Witness),
		EnvelopeNarrow:      int64(t.Envelope.Narrow),
		EnvelopeWide:        int64(t.Envelope.Wide),
		CappedBounds:        int64(t.CappedBounds),
		Phases:              phases,
	})
	sq := obs.SlowQuery{
		RequestID: obs.RequestID(s.ctx),
		Algo:      algo,
		K:         k,
		Elapsed:   cost.Elapsed,
		CPU:       cost.CPU,
		Pages:     cost.Pages(),
		Trace:     s.cost.trace,
	}
	if err != nil {
		sq.Err = err.Error()
	}
	reg.MaybeLogSlow(sq)
}

// pagesAccessed returns this query's combined page-access count:
// buffer-pool accesses for terrain data plus R-tree node visits for object
// data.
func (s *Session) pagesAccessed() int64 {
	return s.io.Accesses + s.dxyVisits
}

// interrupted surfaces context cancellation/deadline between units of work.
func (s *Session) interrupted() error { return s.ctx.Err() }

// touchDMTM pays for the DDM edge records valid at collapse time tm inside
// region, page by page through the buffer pool, charged to this session's
// account. The record payloads mirror in-memory structures at every level —
// the tree's level networks below 100 %, the pathnet above — which the
// upper-bound searches read directly; the read exists to account the I/O the
// paper measures.
func (s *Session) touchDMTM(region geom.MBR, tm int32) {
	s.db.dmtmStore.Touch(region, tm, &s.io)
}

// touchSDN pays for the SDN segment records of the given ladder level
// inside region. The record payloads mirror the in-memory MSDN (which the
// lower-bound computation uses directly); the read exists to account the
// I/O the paper measures.
func (s *Session) touchSDN(region geom.MBR, level int32) {
	s.db.sdnStore.Touch(region, level, &s.io)
}

// clippedDistance returns the pathnet distance from q to o over the network
// vertices inside region — bit for bit what s.path.DistanceWithin(q, o,
// region) returns — where region is the candidate's I/O region for the
// upper bound ub: the MBR of the ellipse with foci q, o and constant ub, or
// the whole terrain when there is no such rectangle yet.
//
// It asks the query's shared-source search first. Any q→o path of length at
// most ub keeps every vertex p at |qp|+|po| <= ub in the plane, inside the
// ellipse and so inside region; when the unrestricted distance is below ub,
// the path that realises it therefore survives the clipping, clipping only
// ever removes paths, and the clipped minimum is the same float. The 1e-9
// guard keeps the boundary case — ub already equal to the pathnet distance
// on flat ground, where a vertex can sit on the rectangle's rounded edge —
// on the clipped search. With ub = +Inf region is the terrain's extent,
// which contains every network vertex.
func (s *Session) clippedDistance(q, o mesh.SurfacePoint, ub float64, region geom.MBR) float64 {
	if d := s.path.FromSource(q, o, math.Inf(1)); math.IsInf(ub, 1) || d*(1+1e-9) < ub {
		return d
	}
	return s.path.DistanceWithin(q, o, region)
}

// settleDistance is clippedDistance for the steps that settle a candidate
// with the reference distance: a region that clips every path yields the
// unrestricted distance instead of +Inf.
func (s *Session) settleDistance(q, o mesh.SurfacePoint, ub float64, region geom.MBR) float64 {
	d := s.clippedDistance(q, o, ub, region)
	if math.IsInf(d, 1) {
		d = s.path.FromSource(q, o, math.Inf(1))
	}
	return d
}

// referenceDistance is ReferenceDistance evaluated through the session's
// reusable pathnet querier.
func (s *Session) referenceDistance(a, b mesh.SurfacePoint) float64 {
	return s.path.DistanceValue(a, b)
}

// MaskedKNNCtx answers the constrained k-NN query (see maskedKNN) bounded by
// ctx. The computation builds private per-query structures, so the session
// contributes only cancellation and lifecycle accounting.
func (s *Session) MaskedKNNCtx(ctx context.Context, q mesh.SurfacePoint, k int, mask FaceMask) ([]Neighbor, error) {
	s.beginQuery(ctx, algoMasked)
	var ns []Neighbor
	err := s.interrupted()
	if err == nil {
		ns, err = s.db.maskedKNN(s.view, q, k, mask)
	}
	_, err2 := s.endQuery(algoMasked, k, ns, err)
	return ns, err2
}

// Algorithm labels used for traces, the slow-query log and registry
// accounting.
const (
	algoMR3      = "mr3"
	algoEA       = "ea"
	algoRange    = "range"
	algoMasked   = "masked"
	algoAccuracy = "accuracy"
)

// costRecorder assembles a query's per-phase cost breakdown. It lives
// inside a Session (one query at a time), so it is single-goroutine by
// construction.
type costRecorder struct {
	trace     *obs.Trace
	phases    []stats.PhaseCost
	cur       stats.PhaseCost // open phase, valid while open; reused in place
	open      bool
	curSpan   obs.SpanID
	curStart  time.Time
	baseIO    storage.IOAccount   // session I/O counters at phase open
	baseVisit int64               // session R-tree visits at phase open
	baseRelax int64               // pathnet relaxation count at phase open
	baseTiers [sdn.NumTiers]int64 // envelope decisions per tier at phase open
	qStart    time.Time           // query start
	relaxBase int64               // pathnet relaxation count at query start
}

// reset opens a new query's recording. The phases buffer is truncated, not
// reallocated — the previous query's Cost.Phases (which aliases it) becomes
// invalid here, per the Result validity contract.
func (c *costRecorder) reset(tr *obs.Trace, relaxBase int64) {
	c.trace = tr
	c.phases = c.phases[:0]
	c.open = false
	c.qStart = time.Now()
	c.relaxBase = relaxBase
}

// beginPhase closes any open phase and opens a named one. The returned
// pointer stays valid until the phase is closed; the ranking code
// accumulates its work counters through it.
func (s *Session) beginPhase(name string) *stats.PhaseCost {
	s.closePhase()
	c := &s.cost
	c.cur = stats.PhaseCost{Phase: name}
	c.open = true
	c.baseIO = s.io
	c.baseVisit = s.dxyVisits
	c.baseRelax = s.path.Relaxations()
	c.baseTiers = s.sdnSc.Decided()
	c.curStart = time.Now()
	c.curSpan = c.trace.StartSpan(name, nil)
	return &c.cur
}

// closePhase seals the open phase, charging it the I/O performed since it
// opened. No-op when no phase is open.
func (s *Session) closePhase() {
	c := &s.cost
	if !c.open {
		return
	}
	c.cur.Wall = time.Since(c.curStart)
	c.cur.PoolMisses = s.io.Misses - c.baseIO.Misses
	c.cur.PoolHits = (s.io.Accesses - c.baseIO.Accesses) - c.cur.PoolMisses
	c.cur.RTreeVisits = s.dxyVisits - c.baseVisit
	c.cur.Relaxations = s.path.Relaxations() - c.baseRelax
	tiers := s.sdnSc.Decided()
	c.cur.Envelope = stats.EnvelopeTiers{
		Floor:   int(tiers[sdn.TierFloor] - c.baseTiers[sdn.TierFloor]),
		Line:    int(tiers[sdn.TierLine] - c.baseTiers[sdn.TierLine]),
		Witness: int(tiers[sdn.TierWitness] - c.baseTiers[sdn.TierWitness]),
		Narrow:  int(tiers[sdn.TierNarrow] - c.baseTiers[sdn.TierNarrow]),
		Wide:    int(tiers[sdn.TierWide] - c.baseTiers[sdn.TierWide]),
	}
	c.phases = append(c.phases, c.cur)
	c.trace.EndSpan(c.curSpan)
	c.open = false
}

// curPhase returns the open phase's counters (the ranking code's
// accumulation target). Query methods always open a phase before ranking;
// nil between phases, as before the phase slot became reusable.
func (s *Session) curPhase() *stats.PhaseCost {
	if !s.cost.open {
		return nil
	}
	return &s.cost.cur
}

// startSpan opens an extra trace span inside the current phase (used for
// per-iteration spans); no-op without a trace.
func (s *Session) startSpan(name string, attrs map[string]float64) obs.SpanID {
	return s.cost.trace.StartSpan(name, attrs)
}

// endSpan closes a span opened by startSpan.
func (s *Session) endSpan(id obs.SpanID) { s.cost.trace.EndSpan(id) }

// finish computes the query's Cost from the recorded phases: CPU is the
// wall time since beginQuery, Elapsed adds the simulated I/O cost of every
// page accessed (the paper's response-time model).
func (c *costRecorder) finish(s *Session) stats.Cost {
	cost := stats.Cost{
		// Phases aliases the recorder's buffer; the next query on this
		// session truncates it (see Result for the validity contract).
		Phases: c.phases,
		CPU:    time.Since(c.qStart),
	}
	cost.Elapsed = cost.CPU + time.Duration(s.pagesAccessed())*s.db.cfg.PageCost
	return cost
}
