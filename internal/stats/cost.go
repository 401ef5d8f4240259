package stats

import "time"

// Phase names shared by the query algorithms. They map onto the paper's
// MR3 steps (§4.1): the 2-D k-NN filter, the step-2 ranking of C1, the 2-D
// range collection, and the step-4 ranking of C2. SurfaceRange reuses the
// range/refine/settle subset.
const (
	PhaseKNN2D   = "knn2d"   // step 1: 2-D k-NN on Dxy
	PhaseRankC1  = "rank-c1" // step 2: surface ranking of C1 (bound tightening)
	PhaseRange2D = "range2d" // step 3: 2-D range query with the step-2 bound
	PhaseRankC2  = "rank-c2" // step 4: surface ranking of C2 (final k-set)
	PhaseRefine  = "refine"  // range query: LOD refinement loop
	PhaseSettle  = "settle"  // range query: reference-distance settlement
)

// PhaseCost is the cost of one named query phase: its wall-clock time plus
// the work and I/O counters accumulated inside it. The page counters are
// split the way the paper's evaluation discusses them — buffer-pool reads
// (hit/miss) for terrain data versus R-tree node visits for object data.
type PhaseCost struct {
	Phase string        `json:"phase"`
	Wall  time.Duration `json:"wall_ns"`

	// Page accesses, split by source.
	PoolHits    int64 `json:"pool_hits"`   // buffer-pool reads served from cache
	PoolMisses  int64 `json:"pool_misses"` // buffer-pool reads that hit the page file
	RTreeVisits int64 `json:"rtree_visits"`

	// Relaxations counts pathnet Dijkstra edge relaxations — the engine's
	// unit of exact-distance work. A phase (or a whole Cost) reporting 0
	// provably computed no exact surface distance, which is how the
	// continuous-query layer certifies its safe-region fast path.
	Relaxations int64 `json:"relaxations"`

	// Work counters (CPU-cost proxies, machine-independent). LowerBounds
	// counts the lower-bound estimations that ran, not the refinement steps
	// that could have asked for one: a step on a closed range (lb = ub)
	// skips the estimation, its outcome being determined, and is not counted.
	UpperBounds int `json:"upper_bounds"`
	LowerBounds int `json:"lower_bounds"`
	Iterations  int `json:"iterations"`
	Candidates  int `json:"candidates"`

	// Envelope counts the dummy-lower-bound decisions by the tier that
	// settled them, and CappedBounds the bounds the ranking stopped at the
	// exclusion bound instead of computing their value (a safe-region query
	// completes them afterwards; see core.ranker.exclusionCap).
	Envelope     EnvelopeTiers `json:"envelope"`
	CappedBounds int           `json:"capped_bounds"`
}

// EnvelopeTiers counts dummy-lower-bound decisions (sdn.MSDN.EnvelopeExceeds)
// by the tier that settled them, cheapest first.
type EnvelopeTiers struct {
	Floor   int `json:"floor"`
	Line    int `json:"line"`
	Witness int `json:"witness"`
	Narrow  int `json:"narrow"`
	Wide    int `json:"wide"`
}

// Pages is the phase's combined page-access count — the paper's "disk
// pages accessed" metric restricted to this phase.
func (p PhaseCost) Pages() int64 { return p.PoolHits + p.PoolMisses + p.RTreeVisits }

// add folds another phase's counters into p (phase name and wall time of p
// are kept).
func (p *PhaseCost) add(o PhaseCost) {
	p.PoolHits += o.PoolHits
	p.PoolMisses += o.PoolMisses
	p.RTreeVisits += o.RTreeVisits
	p.Relaxations += o.Relaxations
	p.UpperBounds += o.UpperBounds
	p.LowerBounds += o.LowerBounds
	p.Iterations += o.Iterations
	p.Candidates += o.Candidates
	p.Envelope.Floor += o.Envelope.Floor
	p.Envelope.Line += o.Envelope.Line
	p.Envelope.Witness += o.Envelope.Witness
	p.Envelope.Narrow += o.Envelope.Narrow
	p.Envelope.Wide += o.Envelope.Wide
	p.CappedBounds += o.CappedBounds
}

// Cost is the structured cost of one query: the per-phase breakdown plus
// the query-level times. Metrics derives the legacy flat view from it.
type Cost struct {
	// Phases lists the query's phases in execution order.
	Phases []PhaseCost `json:"phases"`
	// CPU is the computation time (elapsed minus simulated I/O wait).
	CPU time.Duration `json:"cpu_ns"`
	// Elapsed is the simulated response time: CPU plus the configured
	// per-page I/O cost for every page accessed.
	Elapsed time.Duration `json:"elapsed_ns"`
}

// Total sums the phase counters into one PhaseCost labelled "total", with
// the query CPU time as its wall time.
func (c Cost) Total() PhaseCost {
	t := PhaseCost{Phase: "total", Wall: c.CPU}
	for _, p := range c.Phases {
		t.add(p)
	}
	return t
}

// Pages is the query's combined page-access count across all phases.
func (c Cost) Pages() int64 {
	var n int64
	for _, p := range c.Phases {
		n += p.Pages()
	}
	return n
}

// Phase returns the named phase's cost; ok is false when the query had no
// such phase.
func (c Cost) Phase(name string) (PhaseCost, bool) {
	for _, p := range c.Phases {
		if p.Phase == name {
			return p, true
		}
	}
	return PhaseCost{}, false
}

// Metrics derives the legacy flat view: the same numbers the pre-Cost API
// reported, so experiment output is unchanged.
func (c Cost) Metrics() Metrics {
	t := c.Total()
	return Metrics{
		Elapsed:     c.Elapsed,
		CPU:         c.CPU,
		Pages:       t.Pages(),
		UpperBounds: t.UpperBounds,
		LowerBounds: t.LowerBounds,
		Iterations:  t.Iterations,
		Candidates:  t.Candidates,
	}
}
