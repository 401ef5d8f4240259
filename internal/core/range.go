package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"surfknn/internal/index"
	"surfknn/internal/mesh"
	"surfknn/internal/stats"
	"surfknn/internal/workload"
)

// The paper's conclusion (§6) notes that DMTM and MSDN "provide a framework
// capable of supporting other distance comparison based queries, such as
// range queries and closest pair queries". This file implements both on the
// same multiresolution machinery.

// SurfaceRangeCtx returns every object whose surface distance to q is at
// most radius, with final distance ranges. It uses the same
// filter-and-refine strategy as MR3: a 2-D circular range query collects
// candidates (valid because dE <= dS), then iterative bound refinement
// classifies each candidate against the radius, falling back to the
// reference distance only for ranges straddling it. ctx cancels or
// deadlines this query only.
func (s *Session) SurfaceRangeCtx(ctx context.Context, q mesh.SurfacePoint, radius float64, sched Schedule, opt Options) (Result, error) {
	if s.db.store == nil {
		return Result{}, fmt.Errorf("core: no objects installed (call SetObjects)")
	}
	if radius < 0 || math.IsNaN(radius) {
		return Result{}, fmt.Errorf("core: invalid radius %g", radius)
	}
	s.beginQuery(ctx, algoRange)
	ns, err := s.surfaceRange(q, radius, sched, opt)
	return s.endQuery(algoRange, 0, ns, err)
}

// surfaceRange runs the query under three phases: the 2-D candidate
// collection, the LOD refinement loop (one trace span per iteration), and
// the reference-distance settlement of still-straddling ranges.
func (s *Session) surfaceRange(q mesh.SurfacePoint, radius float64, sched Schedule, opt Options) ([]Neighbor, error) {
	if err := s.interrupted(); err != nil {
		return nil, err
	}
	opt = opt.withDefaults()

	// Candidates enter in canonical order (ascending planar distance, id
	// tiebreak) so the result's stable upper-bound sort breaks ties
	// identically everywhere — see the matching note in mr3.go.
	s.beginPhase(stats.PhaseRange2D)
	s.items = s.view.WithinDistInto(q.XY(), radius, &s.dxyVisits, s.items[:0])
	index.SortByDist(s.items, q.XY())
	s.objs = s.viewObjectsInto(s.items, s.objs)
	s.curPhase().Candidates += len(s.objs)

	s.beginPhase(stats.PhaseRefine)
	r := &s.rk
	r.begin(s, q, len(s.objs), sched, opt, false)
	for _, o := range s.objs {
		r.addCand(o)
	}
	steps := sched.Steps()
	for it := 0; it < steps; it++ {
		if err := s.interrupted(); err != nil {
			return nil, err
		}
		targets := r.rangeUndecided(radius)
		if len(targets) == 0 {
			break
		}
		r.pc.Iterations++
		ri := sched.rung(it)
		span := r.iterSpan(it, ri, len(targets))
		// For range queries the dummy-lower-bound test is against the
		// radius: it is the exclusion threshold.
		r.iterate(targets, ri, radius)
		s.endSpan(span)
	}

	// Settlement for candidates whose range still straddles the radius.
	s.beginPhase(stats.PhaseSettle)
	out := r.resultsBuf[:0]
	for i := range r.cands {
		c := &r.cands[i]
		switch {
		case c.ub <= radius:
			out = append(out, Neighbor{Object: c.obj, LB: c.lb, UB: c.ub})
		case c.lb > radius:
			// excluded
		default:
			// A genuinely unreachable object keeps d = +Inf and fails the
			// d <= radius test.
			d := s.settleDistance(q, c.obj.Point, c.ub, r.regionOf(c))
			s.curPhase().UpperBounds++
			if d <= radius {
				out = append(out, Neighbor{Object: c.obj, LB: d, UB: d})
			}
		}
	}
	sortNeighborsByUB(out)
	return out, nil
}

// sortNeighborsByUB orders the settled results by ascending upper bound
// with a stable insertion sort (sort.Slice allocates its closure; result
// sets are small).
func sortNeighborsByUB(a []Neighbor) {
	for i := 1; i < len(a); i++ {
		n := a[i]
		j := i - 1
		for j >= 0 && a[j].UB > n.UB {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = n
	}
}

// rangeUndecided fills the target scratch with the candidates whose bound
// range still straddles the radius.
func (r *ranker) rangeUndecided(radius float64) []*candidate {
	out := r.targets[:0]
	for i := range r.cands {
		c := &r.cands[i]
		if c.lb <= radius && c.ub > radius {
			n := len(out)
			out = out[:n+1]
			out[n] = c
		}
	}
	r.targets = out
	return out
}

// ClosestPairCtx returns the pair of objects with the smallest surface
// distance between them, found by running a 1-NN query from each object
// against the remainder, cheapest (by 2-D nearest-neighbour distance)
// first, with the running best distance pruning later sources. For larger
// object sets this beats the naive all-pairs reference computation by
// orders of magnitude while returning the same pair.
//
// It drives one nested MR3 query per source object, so it opens no query
// recording of its own — each nested query reports its own Cost and
// registry observation, and each checks ctx on entry, which is what cancels
// the scan between sources.
func (s *Session) ClosestPairCtx(ctx context.Context, sched Schedule, opt Options) (a, b Neighbor, err error) {
	db := s.db
	if db.store == nil {
		return a, b, fmt.Errorf("core: closest pair needs at least two objects")
	}
	// Pin one epoch for the source enumeration and its ordering. The nested
	// MR3 queries each pin their own (possibly newer) epoch — under
	// concurrent updates the pair is advisory, like any multi-query scan.
	view := db.store.Pin()
	defer view.Release()
	table := view.Table()
	if len(table) < 2 {
		return a, b, fmt.Errorf("core: closest pair needs at least two objects")
	}
	// Order the sources by their 2-D 1-NN distance: pairs that are close
	// in the plane are the best candidates for the surface closest pair.
	type src struct {
		idx int
		d2  float64
	}
	srcs := make([]src, 0, len(table))
	var nn []index.Item
	for i, o := range table {
		nn = view.KNNInto(o.Point.XY(), 2, nil, &s.knnSc, nn[:0]) // first hit is the object itself
		d := math.Inf(1)
		if len(nn) == 2 {
			d = nn[1].P.Dist(o.Point.XY())
		}
		srcs = append(srcs, src{i, d})
	}
	sort.Slice(srcs, func(i, j int) bool { return srcs[i].d2 < srcs[j].d2 })

	best := math.Inf(1)
	for _, sc := range srcs {
		// The 2-D NN distance lower-bounds this source's surface NN
		// distance; once it exceeds the best pair found, no later source
		// can win.
		if sc.d2 >= best {
			break
		}
		o := table[sc.idx]
		res, qerr := s.knnExcluding(ctx, o, sched, opt)
		if qerr != nil {
			return a, b, qerr
		}
		if len(res) == 0 {
			continue
		}
		d := s.referenceDistance(o.Point, res[0].Object.Point)
		if d < best {
			best = d
			a = Neighbor{Object: o, LB: d, UB: d}
			b = Neighbor{Object: res[0].Object, LB: d, UB: d}
		}
	}
	if math.IsInf(best, 1) {
		return a, b, fmt.Errorf("core: no pair found")
	}
	return a, b, nil
}

// knnExcluding runs a 1-NN query from an object's location, excluding the
// object itself.
func (s *Session) knnExcluding(ctx context.Context, o workload.Object, sched Schedule, opt Options) ([]Neighbor, error) {
	res, err := s.MR3Ctx(ctx, o.Point, 2, sched, opt)
	if err != nil {
		return nil, err
	}
	out := make([]Neighbor, 0, 1)
	for _, n := range res.Neighbors {
		if n.Object.ID != o.ID {
			out = append(out, n)
			break
		}
	}
	return out, nil
}
