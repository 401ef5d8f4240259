package core

import (
	"context"
	"fmt"
	"math"

	"surfknn/internal/index"
	"surfknn/internal/mesh"
	"surfknn/internal/obs"
	"surfknn/internal/stats"
)

// Result is the outcome of one sk-NN query.
//
// Neighbors and Cost.Phases alias buffers owned by the answering Session:
// they are valid until the next query on that session (or its release to a
// pool). Callers that keep a Result across queries must copy those slices
// first — every in-tree consumer consumes the Result before reusing the
// session.
type Result struct {
	Neighbors []Neighbor
	// Cost is the structured per-phase cost breakdown: wall time per MR3
	// step, page accesses split into buffer-pool hits/misses and R-tree
	// visits, and the work counters. Metrics derives the legacy flat view.
	Cost stats.Cost
	// Trace is the query's phase trace; non-nil only when the session has
	// tracing enabled (or a slow-query log armed the recorder).
	Trace *obs.Trace
	// Epoch is the object-store epoch the query read: every neighbour comes
	// from this one consistent object version (0 on a store-less database).
	Epoch uint64
}

// Metrics is the legacy flat cost view, derived from Cost: the same
// numbers (total time, CPU time, pages accessed, work counters) the
// pre-Cost API reported in a Metrics field.
func (r Result) Metrics() stats.Metrics { return r.Cost.Metrics() }

// MR3Ctx answers the surface k-NN query with Multi-Resolution Range Ranking
// (§4.1); ctx cancels or deadlines this query only:
//
//  1. 2-D k-NN: find the k objects nearest to q's (x,y) projection.
//  2. Surface-distance ranking of those k to obtain a tight upper bound
//     ub(q,b) of the k-th surface neighbour.
//  3. 2-D range query with radius ub(q,b) to collect every possible
//     surface neighbour (any object farther in the plane is farther on the
//     surface).
//  4. Surface-distance ranking of the collected candidates until the k-th
//     neighbour's upper bound is no greater than the (k+1)-th's lower
//     bound.
func (s *Session) MR3Ctx(ctx context.Context, q mesh.SurfacePoint, k int, sched Schedule, opt Options) (Result, error) {
	if s.db.store == nil {
		return Result{}, fmt.Errorf("core: no objects installed (call SetObjects)")
	}
	if k < 1 {
		return Result{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	s.beginQuery(ctx, algoMR3)
	ns, err := s.mr3(q, k, sched, opt)
	return s.endQuery(algoMR3, k, ns, err)
}

// mr3 runs the four MR3 steps, each under its own cost phase, reading
// objects through the epoch pinned at beginQuery.
func (s *Session) mr3(q mesh.SurfacePoint, k int, sched Schedule, opt Options) ([]Neighbor, error) {
	if err := s.interrupted(); err != nil {
		return nil, err
	}

	// Step 1: 2-D k-NN on Dxy. The item and object buffers are session
	// scratch; each step consumes its objects before the next refills them.
	// Candidates enter the ranker in canonical order (ascending planar
	// distance, id tiebreak): the ranker's bounds are order-independent, but
	// the final stable sort preserves insertion order across upper-bound
	// ties, and the canonical order makes that tie order a pure function of
	// the candidate set — the property that lets a sharded deployment
	// (internal/shard) reassemble bit-identical answers.
	s.beginPhase(stats.PhaseKNN2D)
	s.items = s.view.KNNInto(q.XY(), k, &s.dxyVisits, &s.knnSc, s.items[:0])
	index.SortByDist(s.items, q.XY())
	s.objs = s.viewObjectsInto(s.items, s.objs)

	// Step 2: rank C1, tightening the k-th neighbour's upper bound.
	s.beginPhase(stats.PhaseRankC1)
	ranked, err := s.rank(q, s.objs, k, sched, opt, true)
	if err != nil {
		return nil, err
	}
	radius := kthUB(ranked, k)
	s.step3Radius = radius // recorded for the safe-region computation
	if math.IsInf(radius, 1) {
		return nil, fmt.Errorf("core: could not bound the %d-th neighbour", k)
	}

	// Step 3: 2-D range query with the bound as radius, again canonically
	// ordered.
	s.beginPhase(stats.PhaseRange2D)
	s.items = s.view.WithinDistInto(q.XY(), radius, &s.dxyVisits, s.items[:0])
	index.SortByDist(s.items, q.XY())
	s.objs = s.viewObjectsInto(s.items, s.objs)

	// Step 4: rank C2 until the k-set is determined.
	s.beginPhase(stats.PhaseRankC2)
	final, err := s.rank(q, s.objs, k, sched, opt, false)
	if err != nil {
		return nil, err
	}
	return final, nil
}

// kthUB returns the k-th neighbour's upper bound from a ranked result.
func kthUB(ranked []Neighbor, k int) float64 {
	if len(ranked) == 0 {
		return math.Inf(1)
	}
	if k > len(ranked) {
		k = len(ranked)
	}
	return ranked[k-1].UB
}
