// Package obs is the query-observability layer: process-wide metrics, per-
// query phase traces, and a slow-query log, built only on the standard
// library (sync/atomic, expvar, net/http/pprof).
//
// The paper's entire evaluation (Figs. 9–12) is cost accounting — pages
// accessed, CPU vs. I/O time, bound estimations per resolution step — and
// this package makes the same numbers visible on a *running* process
// instead of only in a returned Result:
//
//   - Registry is a set of atomic counters and latency histograms shared by
//     every Session querying an instrumented TerrainDB. Publish exposes a
//     registry as one expvar group, so /debug/vars serves a JSON snapshot;
//     StartDebugServer serves expvar together with net/http/pprof.
//   - Trace records the timed spans of one query (the MR3 steps and each
//     LOD refinement iteration) and marshals to JSON.
//   - SlowQueryLog writes a JSON line, including the phase trace, for every
//     query slower than a threshold.
//
// Everything is race-free: counters and histogram buckets are sync/atomic
// values (the sklint obs-atomic rule forbids writing them directly), and a
// Trace is owned by a single query goroutine. When no registry is attached
// and tracing is off, the instrumentation hooks in internal/core are no-ops
// so experiment figures stay bit-identical.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the process-wide metric set for one query engine. All fields
// are updated atomically; read them with Value / snapshot them with
// Snapshot. The zero value is NOT ready for use — create with NewRegistry.
type Registry struct {
	// Query lifecycle.
	QueriesStarted   Counter
	QueriesFinished  Counter
	QueriesCancelled Counter // context cancelled or deadline exceeded
	QueriesFailed    Counter // finished with a non-context error
	SlowQueries      Counter // queries the slow-query log recorded

	// Buffer-pool activity (fed by storage.BufferPool when instrumented).
	PoolHits      Counter
	PoolMisses    Counter
	PoolEvictions Counter

	// Work counters (fed by core.Session at query end).
	RTreeVisits         Counter // object-index node visits (Dxy)
	DijkstraRelaxations Counter // pathnet edge relaxations
	UpperBounds         Counter // upper-bound estimations
	LowerBounds         Counter // lower-bound estimations run (closed ranges skip theirs)
	Iterations          Counter // LOD refinement iterations
	// Dummy-lower-bound decisions by the tier that settled them, and the
	// bounds a ranking stopped at the exclusion bound.
	EnvelopeFloor, EnvelopeLine, EnvelopeWitness, EnvelopeNarrow, EnvelopeWide Counter
	CappedBounds                                                               Counter

	// Dynamic object-store activity (fed by objstore.Store when
	// instrumented).
	UpdatesApplied  Counter // objects inserted, upserted or deleted
	EpochsCreated   Counter // update batches published as a new epoch
	EpochsReclaimed Counter // retired epochs whose last pin was released
	Epoch           Gauge   // latest published epoch number

	latency     *Histogram     // whole-query CPU latency
	updateBatch *SizeHistogram // objects per applied update batch

	mu     sync.Mutex
	phases map[string]*Histogram // per-phase CPU latency, created lazily

	slow atomic.Pointer[SlowQueryLog]

	publishOnce sync.Once
}

// NewRegistry returns an empty registry ready for concurrent use.
func NewRegistry() *Registry {
	return &Registry{
		latency:     NewHistogram(),
		updateBatch: NewSizeHistogram(),
		phases:      make(map[string]*Histogram),
	}
}

// Default is the process-wide registry the commands publish; libraries
// should prefer an explicitly constructed Registry.
var Default = NewRegistry()

// QueryLatency is the whole-query CPU latency histogram.
func (r *Registry) QueryLatency() *Histogram { return r.latency }

// UpdateBatch is the objects-per-update-batch histogram.
func (r *Registry) UpdateBatch() *SizeHistogram { return r.updateBatch }

// Phase returns the latency histogram of the named query phase, creating it
// on first use. Safe for concurrent callers.
func (r *Registry) Phase(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.phases[name]
	if !ok {
		h = NewHistogram()
		r.phases[name] = h
	}
	return h
}

// SetSlowLog installs (or, with nil, removes) the slow-query log. Sessions
// of an instrumented TerrainDB record phase traces while a slow log is
// installed, so slow entries carry their trace.
func (r *Registry) SetSlowLog(l *SlowQueryLog) { r.slow.Store(l) }

// SlowLogArmed reports whether a slow-query log is installed; instrumented
// sessions use it to decide whether to record traces.
func (r *Registry) SlowLogArmed() bool { return r != nil && r.slow.Load() != nil }

// MaybeLogSlow records q in the slow-query log if one is installed and q's
// elapsed time reaches the threshold. Reports whether the entry was logged.
func (r *Registry) MaybeLogSlow(q SlowQuery) bool {
	if r == nil {
		return false
	}
	l := r.slow.Load()
	if l == nil || !l.Log(q) {
		return false
	}
	r.SlowQueries.Add(1)
	return true
}

// Snapshot renders every counter and histogram as a nested map, the value
// Publish exposes through expvar.
func (r *Registry) Snapshot() map[string]any {
	phases := make(map[string]any)
	r.mu.Lock()
	for name, h := range r.phases {
		phases[name] = h.Snapshot()
	}
	r.mu.Unlock()
	return map[string]any{
		"queries": map[string]any{
			"started":    r.QueriesStarted.Value(),
			"finished":   r.QueriesFinished.Value(),
			"cancelled":  r.QueriesCancelled.Value(),
			"failed":     r.QueriesFailed.Value(),
			"slow":       r.SlowQueries.Value(),
			"latency_us": r.latency.Snapshot(),
		},
		"pool": map[string]any{
			"hits":      r.PoolHits.Value(),
			"misses":    r.PoolMisses.Value(),
			"evictions": r.PoolEvictions.Value(),
		},
		"work": map[string]any{
			"rtree_visits":         r.RTreeVisits.Value(),
			"dijkstra_relaxations": r.DijkstraRelaxations.Value(),
			"upper_bounds":         r.UpperBounds.Value(),
			"lower_bounds":         r.LowerBounds.Value(),
			"iterations":           r.Iterations.Value(),
			"envelope_floor":       r.EnvelopeFloor.Value(),
			"envelope_line":        r.EnvelopeLine.Value(),
			"envelope_witness":     r.EnvelopeWitness.Value(),
			"envelope_narrow":      r.EnvelopeNarrow.Value(),
			"envelope_wide":        r.EnvelopeWide.Value(),
			"capped_bounds":        r.CappedBounds.Value(),
		},
		"objects": map[string]any{
			"epoch":            r.Epoch.Value(),
			"updates_applied":  r.UpdatesApplied.Value(),
			"epochs_created":   r.EpochsCreated.Value(),
			"epochs_reclaimed": r.EpochsReclaimed.Value(),
			"update_batch":     r.updateBatch.Snapshot(),
		},
		"phases": phases,
	}
}

// ObserveQuery folds one finished query into the registry: lifecycle
// counters, work counters, and latency histograms (whole query plus each
// phase). cancelled/failed classify err-terminated queries.
func (r *Registry) ObserveQuery(q QueryObservation) {
	if r == nil {
		return
	}
	switch {
	case q.Cancelled:
		r.QueriesCancelled.Add(1)
	case q.Failed:
		r.QueriesFailed.Add(1)
	default:
		r.QueriesFinished.Add(1)
	}
	r.RTreeVisits.Add(q.RTreeVisits)
	r.DijkstraRelaxations.Add(q.DijkstraRelaxations)
	r.UpperBounds.Add(q.UpperBounds)
	r.LowerBounds.Add(q.LowerBounds)
	r.Iterations.Add(q.Iterations)
	r.EnvelopeFloor.Add(q.EnvelopeFloor)
	r.EnvelopeLine.Add(q.EnvelopeLine)
	r.EnvelopeWitness.Add(q.EnvelopeWitness)
	r.EnvelopeNarrow.Add(q.EnvelopeNarrow)
	r.EnvelopeWide.Add(q.EnvelopeWide)
	r.CappedBounds.Add(q.CappedBounds)
	r.latency.Observe(q.CPU)
	for _, p := range q.Phases {
		r.Phase(p.Name).Observe(p.Wall)
	}
}

// QueryObservation is the registry-facing summary of one finished query.
type QueryObservation struct {
	Cancelled, Failed   bool
	CPU                 time.Duration
	RTreeVisits         int64
	DijkstraRelaxations int64
	UpperBounds         int64
	LowerBounds         int64
	Iterations          int64
	// Envelope decisions by settling tier, and capped bounds (see
	// stats.PhaseCost).
	EnvelopeFloor, EnvelopeLine, EnvelopeWitness, EnvelopeNarrow, EnvelopeWide int64
	CappedBounds                                                               int64
	Phases                                                                     []PhaseObservation
}

// PhaseObservation is one phase's contribution to the latency histograms.
type PhaseObservation struct {
	Name string
	Wall time.Duration
}
