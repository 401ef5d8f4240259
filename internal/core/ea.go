package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/stats"
	"surfknn/internal/workload"
)

// EACtx answers the query with the Enhanced Approximation benchmark of
// §5.2: the same filter pipeline as MR3 (2-D k-NN → range query → ranking)
// and the same search-region techniques, but every surface distance is
// computed at full resolution — original mesh plus pathnet for the distance
// itself, the 100% SDN for the lower-bound filter. Lacking the
// multiresolution ladder, it fetches fine terrain data over large regions
// and runs the Kanai–Suzuki computation per candidate, which is what Figs.
// 10–11 show blowing up against MR3. ctx cancels or deadlines this query
// only.
func (s *Session) EACtx(ctx context.Context, q mesh.SurfacePoint, k int) (Result, error) {
	if s.db.store == nil {
		return Result{}, fmt.Errorf("core: no objects installed (call SetObjects)")
	}
	if k < 1 {
		return Result{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	s.beginQuery(ctx, algoEA)
	s.eaSc.ensure(k)
	ns, err := s.ea(q, k)
	return s.endQuery(algoEA, k, ns, err)
}

// eaState is the EA benchmark's retained per-session scratch: the running
// top-k slab and the id snapshot of step 2's winners (step 4's dedup set —
// snapshotted, not live, so a candidate later pushed out of the top is
// still skipped, exactly as the old map-based dedup behaved).
type eaState struct {
	top  []eaScored
	seen []int64
}

type eaScored struct {
	obj workload.Object
	d   float64
}

// ensure grows the slabs for a k-neighbour query; runs at query entry, off
// the annotated hot path.
func (e *eaState) ensure(k int) {
	if cap(e.top) < k+1 {
		e.top = make([]eaScored, 0, k+1)
	}
	if cap(e.seen) < k {
		e.seen = make([]int64, 0, k)
	}
}

// push inserts (o, d) into the ascending top list — a stable insertion in
// place of the old append+sort.Slice — truncates it to k, and returns the
// running k-th distance (+Inf while fewer than k are held).
func (e *eaState) push(o workload.Object, d float64, k int) float64 {
	n := len(e.top)
	e.top = e.top[:n+1]
	i := n
	for i > 0 && e.top[i-1].d > d {
		e.top[i] = e.top[i-1]
		i--
	}
	e.top[i] = eaScored{obj: o, d: d}
	if len(e.top) > k {
		e.top = e.top[:k]
	}
	if len(e.top) == k {
		return e.top[k-1].d
	}
	return math.Inf(1)
}

// eaDistFull computes one exact (full-resolution) surface distance for the
// EA benchmark, fetching the full-LOD terrain pages of the search region
// first.
func (s *Session) eaDistFull(q mesh.SurfacePoint, o workload.Object, bound float64) float64 {
	db := s.db
	region := db.Extent
	if !math.IsInf(bound, 1) {
		if m := geom.NewEllipse(q.XY(), o.Point.XY(), bound).MBR(); !m.IsEmpty() {
			region = m
		}
	}
	s.touchDMTM(region, 0)
	s.touchSDN(region, rungLevel[pathnetRung])
	s.curPhase().UpperBounds++
	// If no path exists at all, the +Inf distance propagates to the bound
	// check at the call site instead of masquerading as a finite bound.
	return s.settleDistance(q, o.Point, bound, region)
}

// sortObjsByDist2 orders the candidates by squared 3-D distance to q with a
// stable insertion sort (the allocation-free replacement for sort.Slice;
// candidate sets are small).
func sortObjsByDist2(q mesh.SurfacePoint, objs []workload.Object) {
	for i := 1; i < len(objs); i++ {
		o := objs[i]
		d := q.Pos.Dist2(o.Point.Pos)
		j := i - 1
		for j >= 0 && q.Pos.Dist2(objs[j].Point.Pos) > d {
			objs[j+1] = objs[j]
			j--
		}
		objs[j+1] = o
	}
}

// idIn reports whether id occurs in ids (linear scan; the set holds at most
// k entries).
func idIn(ids []int64, id int64) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// ea runs the benchmark's four steps, phased the same way as MR3 so cost
// breakdowns of the two algorithms line up phase by phase.
func (s *Session) ea(q mesh.SurfacePoint, k int) ([]Neighbor, error) {
	db := s.db
	if err := s.interrupted(); err != nil {
		return nil, err
	}
	e := &s.eaSc
	e.top = e.top[:0]

	// Step 1: 2-D k-NN filter.
	s.beginPhase(stats.PhaseKNN2D)
	s.items = s.view.KNNInto(q.XY(), k, &s.dxyVisits, &s.knnSc, s.items[:0])
	s.objs = s.viewObjectsInto(s.items, s.objs)
	s.curPhase().Candidates += len(s.objs)

	// Step 2: exact (full-resolution) surface distances for C1. The first
	// candidate has no bound yet and searches the entire terrain; later
	// candidates reuse the running k-th distance as their ellipse bound
	// (the expansion strategy of [2] the paper adopts for fairness).
	s.beginPhase(stats.PhaseRankC1)
	kth := math.Inf(1)
	for _, o := range s.objs {
		kth = e.push(o, s.eaDistFull(q, o, kth), k)
	}
	if math.IsInf(kth, 1) {
		return nil, fmt.Errorf("core: could not bound the %d-th neighbour", k)
	}

	// Step 3: 2-D range query with the k-th distance as radius.
	s.beginPhase(stats.PhaseRange2D)
	s.items = s.view.WithinDistInto(q.XY(), kth, &s.dxyVisits, s.items[:0])
	s.objs = s.viewObjectsInto(s.items, s.objs)
	s.curPhase().Candidates += len(s.objs)

	// Step 4: verify every candidate, cheapest (by Euclidean distance)
	// first so the k-th bound shrinks early; the 100% SDN lower bound
	// prunes candidates without the expensive computation.
	s.beginPhase(stats.PhaseRankC2)
	sortObjsByDist2(q, s.objs)
	e.seen = e.seen[:0]
	for _, sc := range e.top {
		n := len(e.seen)
		e.seen = e.seen[:n+1]
		e.seen[n] = sc.obj.ID
	}
	for _, o := range s.objs {
		if err := s.interrupted(); err != nil {
			return nil, err
		}
		if idIn(e.seen, o.ID) {
			continue
		}
		region := db.Extent
		if m := geom.NewEllipse(q.XY(), o.Point.XY(), kth).MBR(); !m.IsEmpty() {
			region = m
		}
		s.curPhase().LowerBounds++
		lb := db.MSDN.LowerBoundScratch(&s.sdnSc, q.Pos, o.Point.Pos, region, 1.0, math.Inf(1))
		s.touchSDN(region, rungLevel[pathnetRung])
		if lb.LB > kth {
			continue // filtered: cannot beat the current k-th neighbour
		}
		kth = e.push(o, s.eaDistFull(q, o, kth), k)
	}

	out := s.rk.resultsBuf[:len(e.top)]
	for i, sc := range e.top {
		out[i] = Neighbor{Object: sc.obj, LB: sc.d, UB: sc.d}
	}
	return out, nil
}

// BruteForce ranks every object by the reference surface distance — the
// oracle used by tests and, on small inputs, sanity checks. It bypasses the
// paged stores (no page accounting) but still pins one epoch so the scan
// sees a consistent object version under concurrent updates.
func (s *Session) BruteForce(q mesh.SurfacePoint, k int) []Neighbor {
	db := s.db
	type scored struct {
		obj workload.Object
		d   float64
	}
	var table []workload.Object
	if db.store != nil {
		e := db.store.Pin()
		table = e.Table()
		e.Release() // Table() is an immutable snapshot; safe after release
	}
	all := make([]scored, 0, len(table))
	for _, o := range table {
		all = append(all, scored{o, s.referenceDistance(q, o.Point)})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].d < all[j].d })
	if k > len(all) {
		k = len(all)
	}
	out := make([]Neighbor, k)
	for i := 0; i < k; i++ {
		out[i] = Neighbor{Object: all[i].obj, LB: all[i].d, UB: all[i].d}
	}
	return out
}
