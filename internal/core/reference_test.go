package core

import (
	"fmt"
	"math"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/index"
	"surfknn/internal/mesh"
	"surfknn/internal/multires"
	"surfknn/internal/stats"
	"surfknn/internal/workload"
)

// The upper-bound path as it ran before the level networks and the
// shared-source searches, kept as the reference the query engine is held to:
//
//   - every upper-bound estimation below the pathnet level extracts the whole
//     level network as a private graph and searches it from scratch
//     (Tree.UpperBound with IncludeAll: ExtractNetwork → Embed →
//     DijkstraTarget, map-backed numbering in first-seen order, adjacency
//     lists in edge order), with no refined region and no retry;
//   - every pathnet distance is its own clipped DistanceWithin from the
//     query point, retried unclipped with DistanceValue where the settle
//     steps did so;
//   - the pathnet-level iteration and EA touch their DMTM pages like any
//     other step.
//
// and the lower-bound side as it ran before the ranker asked whether an
// estimation's outcome is already determined:
//
//   - every updateLB call and every step of the distance query runs its
//     estimation, closed range or not (closed counts the calls the engine
//     skips, which is exactly what its LowerBounds counter falls short by).
//
// The dummy bound goes through sdn.EnvelopeExceeds on both sides; that its
// decision is the envelope value's is pinned in internal/sdn.
//
// Everything the two paths share (classification, grouping, the 2-D filters,
// cost phases, the page touches) is the session's own code, so a difference
// in any answer, bound or page count is a difference in one of those two
// paths.
type refEngine struct {
	s      *Session
	closed int // lower-bound estimations run on a closed range
}

// newRefEngine returns the reference engine over a session of db.
func newRefEngine(t testing.TB, db *TerrainDB) *refEngine {
	t.Helper()
	return &refEngine{s: db.NewSession()}
}

// takeClosed returns the closed-range estimations since the last call.
func (e *refEngine) takeClosed() int {
	n := e.closed
	e.closed = 0
	return n
}

// settle is the settle steps' "clipped distance, retry unclipped on +Inf".
func (e *refEngine) settle(q, o mesh.SurfacePoint, region geom.MBR) float64 {
	d := e.s.path.DistanceWithin(q, o, region)
	if math.IsInf(d, 1) {
		d = e.s.path.DistanceValue(q, o)
	}
	return d
}

func (e *refEngine) rank(q mesh.SurfacePoint, objs []workload.Object, k int, sched Schedule, opt Options, tighten bool) ([]Neighbor, error) {
	opt = opt.withDefaults()
	if k > len(objs) {
		k = len(objs)
	}
	r := &e.s.rk
	r.begin(e.s, q, k, sched, opt, tighten)
	for _, o := range objs {
		r.addCand(o)
	}
	r.pc.Candidates += len(objs)
	if err := e.run(r); err != nil {
		return nil, err
	}
	return r.results(), nil
}

func (e *refEngine) run(r *ranker) error {
	steps := r.sched.Steps()
	for it := 0; it < steps; it++ {
		if r.classify() && !r.needTightening() {
			return nil
		}
		targets := r.refinementTargets()
		if len(targets) == 0 {
			return nil
		}
		r.pc.Iterations++
		dmRes, sdnRes := r.sched.At(it)
		if err := e.iterate(r, targets, dmRes, sdnRes, r.kthSmallestUB()); err != nil {
			return err
		}
	}
	if r.classify() && !r.needTightening() {
		return nil
	}
	for i := range r.cands {
		c := &r.cands[i]
		if c.state == candOut {
			continue
		}
		if c.ub-c.lb < 1e-9*(1+c.ub) {
			continue
		}
		d := e.settle(r.q, c.obj.Point, r.regionOf(c))
		r.pc.UpperBounds++
		c.setUB(d)
		c.lb = d
	}
	r.classify()
	return nil
}

func (e *refEngine) iterate(r *ranker, targets []*candidate, dmRes, sdnRes, exclude float64) error {
	numGroups := r.groupRegions(targets)
	level := sdnLevelOf(sdnRes)
	for gi := 0; gi < numGroups; gi++ {
		tm := int32(0)
		if dmRes < PathnetResolution {
			tm = r.s.db.Tree.TimeForResolution(dmRes)
		}
		e.s.touchDMTM(r.groupRegion[gi], tm)
		e.s.touchSDN(r.groupRegion[gi], level)
		for ti, c := range targets {
			if r.groupOf[ti] != int32(gi) {
				continue
			}
			e.updateUB(r, c, dmRes, tm)
			e.updateLB(r, c, sdnRes, exclude)
		}
	}
	return nil
}

func (e *refEngine) updateUB(r *ranker, c *candidate, dmRes float64, tm int32) {
	r.pc.UpperBounds++
	if dmRes >= PathnetResolution {
		if r.s.path.DistanceValue(r.q, c.obj.Point) >= c.ub {
			c.lb = c.ub // the tie d_N = ub closes the range
			return
		}
		d := r.s.path.DistanceWithin(r.q, c.obj.Point, r.regionOf(c))
		if d < c.ub {
			c.setUB(d)
			if d > c.lb {
				c.lb = d
			}
		}
		return
	}
	if ub := r.s.db.Tree.UpperBound(r.s.db.Mesh, r.q, c.obj.Point, tm, multires.IncludeAll).UB; ub < c.ub {
		c.setUB(ub)
	}
}

// updateLB is ranker.updateLB with every estimation run.
func (e *refEngine) updateLB(r *ranker, c *candidate, sdnRes, kthUB float64) {
	r.pc.LowerBounds++
	if c.lb >= c.ub {
		e.closed++
	}
	region := r.regionOf(c)
	q3, o3 := r.q.Pos, c.obj.Point.Pos
	if !r.opt.DisableDummyLB && len(c.lbPath) > 0 {
		ms := r.s.db.MSDN
		if !ms.EnvelopeExceeds(&r.s.sdnSc, q3, o3, region, sdnRes, c.lbPath, 2*ms.Spacing, c.lb, kthUB) {
			return
		}
	}
	r.applyLB(c, r.s.db.MSDN.LowerBoundScratch(&r.s.sdnSc, q3, o3, region, sdnRes, math.Inf(1)))
}

// sdnLevelOf is the SDN level materialised at exactly resolution res.
func sdnLevelOf(res float64) int32 {
	for i, r := range SDNLadder {
		if r == res {
			return int32(i)
		}
	}
	panic(fmt.Sprintf("core: no SDN level at resolution %v", res))
}

// MR3 is Session.MR3Ctx over the reference path.
func (e *refEngine) MR3(q mesh.SurfacePoint, k int, sched Schedule, opt Options) (Result, error) {
	res, _, err := e.MR3Safe(q, k, sched, opt)
	return res, err
}

// MR3Safe is Session.MR3SafeCtx over the reference path.
func (e *refEngine) MR3Safe(q mesh.SurfacePoint, k int, sched Schedule, opt Options) (Result, SafeRegion, error) {
	s := e.s
	s.beginQuery(nil, algoMR3)
	ns, err := func() ([]Neighbor, error) {
		s.beginPhase(stats.PhaseKNN2D)
		s.items = s.view.KNNInto(q.XY(), k, &s.dxyVisits, &s.knnSc, s.items[:0])
		index.SortByDist(s.items, q.XY())
		s.objs = s.viewObjectsInto(s.items, s.objs)

		s.beginPhase(stats.PhaseRankC1)
		ranked, err := e.rank(q, s.objs, k, sched, opt, true)
		if err != nil {
			return nil, err
		}
		radius := kthUB(ranked, k)
		s.step3Radius = radius
		if math.IsInf(radius, 1) {
			return nil, fmt.Errorf("core: could not bound the %d-th neighbour", k)
		}

		s.beginPhase(stats.PhaseRange2D)
		s.items = s.view.WithinDistInto(q.XY(), radius, &s.dxyVisits, s.items[:0])
		index.SortByDist(s.items, q.XY())
		s.objs = s.viewObjectsInto(s.items, s.objs)

		s.beginPhase(stats.PhaseRankC2)
		return e.rank(q, s.objs, k, sched, opt, false)
	}()
	var sr SafeRegion
	if err == nil {
		sr = s.safeRegion(q, ns)
	}
	res, err := s.endQuery(algoMR3, k, ns, err)
	return res, sr, err
}

// MR3Shipped is Session.MR3ShippedCtx over the reference path.
func (e *refEngine) MR3Shipped(q mesh.SurfacePoint, k int, sched Schedule, opt Options, ship *Shipped) (Result, float64, bool, error) {
	s := e.s
	s.beginQuery(nil, algoMR3)
	s.ensureScratch(s.view.Len() + len(ship.Objs))
	settled := false
	ns, err := func() ([]Neighbor, error) {
		radius := ship.Radius
		if !ship.Resume {
			s.beginPhase(stats.PhaseKNN2D)
			s.items = s.view.KNNInto(q.XY(), k, &s.dxyVisits, &s.knnSc, s.items[:0])
			index.SortByDist(s.items, q.XY())
			s.objs = s.viewObjectsInto(s.items, s.objs)
			s.objs = s.mergeShipped(q.XY(), s.objs, ship.Objs, math.Inf(1))
			if len(s.objs) > k {
				s.objs = s.objs[:k]
			}

			s.beginPhase(stats.PhaseRankC1)
			ranked, err := e.rank(q, s.objs, k, sched, opt, true)
			if err != nil {
				return nil, err
			}
			radius = kthUB(ranked, k)
			if math.IsInf(radius, 1) {
				return nil, fmt.Errorf("core: could not bound the %d-th neighbour", k)
			}
		}
		s.step3Radius = radius
		if !ship.Resume && !(radius < ship.Complete) {
			return nil, nil
		}
		settled = true

		s.beginPhase(stats.PhaseRange2D)
		s.items = s.view.WithinDistInto(q.XY(), radius, &s.dxyVisits, s.items[:0])
		index.SortByDist(s.items, q.XY())
		s.objs = s.viewObjectsInto(s.items, s.objs)
		s.objs = s.mergeShipped(q.XY(), s.objs, ship.Objs, radius)

		s.beginPhase(stats.PhaseRankC2)
		return e.rank(q, s.objs, k, sched, opt, false)
	}()
	res, err := s.endQuery(algoMR3, k, ns, err)
	return res, s.step3Radius, settled, err
}

// SurfaceRange is Session.SurfaceRangeCtx over the reference path.
func (e *refEngine) SurfaceRange(q mesh.SurfacePoint, radius float64, sched Schedule, opt Options) (Result, error) {
	s := e.s
	s.beginQuery(nil, algoRange)
	ns, err := func() ([]Neighbor, error) {
		opt = opt.withDefaults()
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
		for it := 0; it < sched.Steps(); it++ {
			targets := r.rangeUndecided(radius)
			if len(targets) == 0 {
				break
			}
			r.pc.Iterations++
			dmRes, sdnRes := sched.At(it)
			if err := e.iterate(r, targets, dmRes, sdnRes, radius); err != nil {
				return nil, err
			}
		}

		s.beginPhase(stats.PhaseSettle)
		out := r.resultsBuf[:0]
		for i := range r.cands {
			c := &r.cands[i]
			switch {
			case c.ub <= radius:
				out = append(out, Neighbor{Object: c.obj, LB: c.lb, UB: c.ub})
			case c.lb > radius:
			default:
				d := e.settle(q, c.obj.Point, r.regionOf(c))
				s.curPhase().UpperBounds++
				if d <= radius {
					out = append(out, Neighbor{Object: c.obj, LB: d, UB: d})
				}
			}
		}
		sortNeighborsByUB(out)
		return out, nil
	}()
	return s.endQuery(algoRange, 0, ns, err)
}

func (e *refEngine) eaDistFull(q mesh.SurfacePoint, o workload.Object, bound float64, fullLevel int32) (float64, error) {
	s := e.s
	region := s.db.Extent
	if !math.IsInf(bound, 1) {
		if m := geom.NewEllipse(q.XY(), o.Point.XY(), bound).MBR(); !m.IsEmpty() {
			region = m
		}
	}
	s.touchDMTM(region, 0)
	s.touchSDN(region, fullLevel)
	s.curPhase().UpperBounds++
	return e.settle(q, o.Point, region), nil
}

// EA is Session.EACtx over the reference path.
func (e *refEngine) EA(q mesh.SurfacePoint, k int) (Result, error) {
	s := e.s
	s.beginQuery(nil, algoEA)
	s.eaSc.ensure(k)
	ns, err := func() ([]Neighbor, error) {
		db := s.db
		fullLevel := sdnLevelOf(1.0)
		top := &s.eaSc
		top.top = top.top[:0]

		s.beginPhase(stats.PhaseKNN2D)
		s.items = s.view.KNNInto(q.XY(), k, &s.dxyVisits, &s.knnSc, s.items[:0])
		s.objs = s.viewObjectsInto(s.items, s.objs)
		s.curPhase().Candidates += len(s.objs)

		s.beginPhase(stats.PhaseRankC1)
		kth := math.Inf(1)
		for _, o := range s.objs {
			d, err := e.eaDistFull(q, o, kth, fullLevel)
			if err != nil {
				return nil, err
			}
			kth = top.push(o, d, k)
		}
		if math.IsInf(kth, 1) {
			return nil, fmt.Errorf("core: could not bound the %d-th neighbour", k)
		}

		s.beginPhase(stats.PhaseRange2D)
		s.items = s.view.WithinDistInto(q.XY(), kth, &s.dxyVisits, s.items[:0])
		s.objs = s.viewObjectsInto(s.items, s.objs)
		s.curPhase().Candidates += len(s.objs)

		s.beginPhase(stats.PhaseRankC2)
		sortObjsByDist2(q, s.objs)
		top.seen = top.seen[:0]
		for _, sc := range top.top {
			top.seen = append(top.seen, sc.obj.ID)
		}
		for _, o := range s.objs {
			if idIn(top.seen, o.ID) {
				continue
			}
			region := db.Extent
			if m := geom.NewEllipse(q.XY(), o.Point.XY(), kth).MBR(); !m.IsEmpty() {
				region = m
			}
			s.curPhase().LowerBounds++
			lb := db.MSDN.LowerBoundScratch(&s.sdnSc, q.Pos, o.Point.Pos, region, 1.0, math.Inf(1))
			s.touchSDN(region, fullLevel)
			if lb.LB > kth {
				continue
			}
			d, err := e.eaDistFull(q, o, kth, fullLevel)
			if err != nil {
				return nil, err
			}
			kth = top.push(o, d, k)
		}
		out := s.rk.resultsBuf[:len(top.top)]
		for i, sc := range top.top {
			out[i] = Neighbor{Object: sc.obj, LB: sc.d, UB: sc.d}
		}
		return out, nil
	}()
	return s.endQuery(algoEA, k, ns, err)
}

// DistanceWithAccuracy is Session.DistanceWithAccuracyCtx with every step's
// lower bound estimated, the pathnet step's closed range included.
func (e *refEngine) DistanceWithAccuracy(a, b mesh.SurfacePoint, accuracy float64, sched Schedule) (DistanceRange, Result, error) {
	s := e.s
	s.beginQuery(nil, algoAccuracy)
	out, err := func() (DistanceRange, error) {
		db := s.db
		s.beginPhase(stats.PhaseRefine)
		pc := s.curPhase()
		out := DistanceRange{LB: a.Pos.Dist(b.Pos), UB: math.Inf(1)}
		for it := 0; it < sched.Steps(); it++ {
			out.Iterations = it + 1
			pc.Iterations++
			dmRes, sdnRes := sched.At(it)
			region := db.Extent
			if !math.IsInf(out.UB, 1) {
				if m := geom.NewEllipse(a.XY(), b.XY(), out.UB).MBR(); !m.IsEmpty() {
					region = m
				}
			}
			if dmRes >= PathnetResolution {
				ub := s.path.DistanceWithin(a, b, region)
				if math.IsInf(ub, 1) {
					ub, _ = s.path.Distance(a, b)
				}
				pc.UpperBounds++
				if ub < out.UB {
					out.UB = ub
				}
				if out.UB > out.LB {
					out.LB = out.UB
				}
			} else {
				tm := db.Tree.TimeForResolution(dmRes)
				s.touchDMTM(region, tm)
				pc.UpperBounds++
				if ub := db.Tree.UpperBound(db.Mesh, a, b, tm, multires.IncludeAll).UB; ub < out.UB {
					out.UB = ub
				}
			}
			if !math.IsInf(out.UB, 1) {
				if m := geom.NewEllipse(a.XY(), b.XY(), out.UB).MBR(); !m.IsEmpty() {
					region = m
				}
				s.touchSDN(region, sdnLevelOf(sdnRes))
				if out.LB >= out.UB {
					e.closed++
				}
				est := db.MSDN.LowerBoundScratch(&s.sdnSc, a.Pos, b.Pos, region, sdnRes, math.Inf(1))
				pc.LowerBounds++
				if est.LB > out.LB {
					out.LB = est.LB
				}
				if out.LB > out.UB {
					out.LB = out.UB
				}
			}
			out.Accuracy = out.LB / out.UB
			if out.Accuracy >= accuracy {
				break
			}
		}
		if math.IsInf(out.UB, 1) {
			return out, fmt.Errorf("core: points are not connected on the surface")
		}
		return out, nil
	}()
	res, err := s.endQuery(algoAccuracy, 0, nil, err)
	return out, res, err
}

// refFixture is one terrain built twice, identically: the engine answers on
// one database and the reference on the other, so the two buffer pools go
// through the same hit/miss/eviction history and per-phase hit and miss
// counts can be compared, not just their sum.
type refFixture struct {
	name    string
	db, ref *TerrainDB
	qs      []mesh.SurfacePoint
	radius  float64
}

func refFixtures(t *testing.T) []refFixture {
	t.Helper()
	build := func(name string, m *mesh.Mesh, pool int, place func(db *TerrainDB) ([]workload.Object, []mesh.SurfacePoint)) refFixture {
		f := refFixture{name: name, radius: m.Extent().Width() / 4}
		for _, dst := range []**TerrainDB{&f.db, &f.ref} {
			db, err := BuildTerrainDB(m, Config{PoolPages: pool})
			if err != nil {
				t.Fatal(err)
			}
			var objs []workload.Object
			objs, f.qs = place(db)
			db.SetObjects(objs)
			*dst = db
		}
		return f
	}
	random := func(db *TerrainDB) ([]workload.Object, []mesh.SurfacePoint) {
		objs, err := workload.RandomObjects(db.Mesh, db.Loc, 60, 2007)
		if err != nil {
			t.Fatal(err)
		}
		return objs, queryPoints(t, db, 3, 77)
	}
	return []refFixture{
		// A pool far smaller than the data: most fetches miss and evict.
		build("BH", mesh.FromGrid(dem.Synthesize(dem.BH, 16, 10, 2006)), 24, random),
		build("EP", mesh.FromGrid(dem.Synthesize(dem.EP, 16, 10, 2006)), 0, random),
		// Flat ground with objects and query points on grid vertices: along
		// a grid line or diagonal the mesh network already realises the
		// straight line, so the upper bound reaches the pathnet distance
		// before the pathnet level does — the case the clipped-distance
		// guard hands back to the clipped search.
		build("FLAT", mesh.FromGrid(dem.NewGrid(17, 17, 10)), 0, latticePlacement(t)),
	}
}

// latticePlacement puts an object on every third grid vertex of the 17×17
// flat grid and adds a few off-lattice ones; the query points are a vertex
// that shares rows, columns and diagonals with objects, a vertex that holds
// an object, and an off-lattice point.
func latticePlacement(t *testing.T) func(db *TerrainDB) ([]workload.Object, []mesh.SurfacePoint) {
	return func(db *TerrainDB) ([]workload.Object, []mesh.SurfacePoint) {
		at := func(x, y float64) mesh.SurfacePoint {
			sp, err := db.SurfacePointAt(geom.Vec2{X: x, Y: y})
			if err != nil {
				t.Fatal(err)
			}
			return sp
		}
		var objs []workload.Object
		for col := 1; col < 17; col += 3 {
			for row := 1; row < 17; row += 3 {
				objs = append(objs, workload.Object{ID: int64(len(objs)), Point: at(float64(col)*10, float64(row)*10)})
			}
		}
		extra, err := workload.RandomObjects(db.Mesh, db.Loc, 10, 2007)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range extra {
			o.ID = int64(len(objs))
			objs = append(objs, o)
		}
		return objs, []mesh.SurfacePoint{at(70, 40), at(100, 100), at(83.5, 61.25)}
	}
}

// TestClippedDistanceGuard pins both sides of the guard on flat ground,
// where a grid-aligned pair's pathnet distance is the straight line. With
// the upper bound already equal to that distance the search ellipse is the
// segment itself, its rectangle has no interior for rounding to spare, and
// clippedDistance must run the clipped search — seen as fresh relaxations,
// because the shared search has by then nothing left to relax for this
// target. With a bound visibly above the distance it must answer from the
// shared search and relax nothing.
func TestClippedDistanceGuard(t *testing.T) {
	m := mesh.FromGrid(dem.NewGrid(17, 17, 10))
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	at := func(x, y float64) mesh.SurfacePoint {
		sp, err := db.SurfacePointAt(geom.Vec2{X: x, Y: y})
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	s := db.NewSession()
	for _, pair := range [][2]mesh.SurfacePoint{
		{at(20, 40), at(130, 40)},  // along a grid row
		{at(40, 20), at(40, 130)},  // along a grid column
		{at(30, 30), at(120, 120)}, // along the cells' diagonal
	} {
		q, o := pair[0], pair[1]
		straight := q.Pos.Dist(o.Pos)
		s.path.ForgetSource()
		if d := s.path.FromSource(q, o, math.Inf(1)); d != straight {
			t.Fatalf("pathnet distance %v, straight line %v: the pair is not grid-aligned", d, straight)
		}
		before := s.path.Relaxations()
		s.path.FromSource(q, o, math.Inf(1))
		if got := s.path.Relaxations(); got != before {
			t.Fatalf("repeating a shared-source target relaxed %d arcs", got-before)
		}

		// ub == distance: the guard must hand the pair to the clipped search.
		region := geom.NewEllipse(q.XY(), o.XY(), straight).MBR()
		want := s.path.DistanceWithin(q, o, region)
		before = s.path.Relaxations()
		got := s.clippedDistance(q, o, straight, region)
		if s.path.Relaxations() == before {
			t.Fatal("ub equal to the distance was answered from the shared search")
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("clippedDistance %v, DistanceWithin %v", got, want)
		}
		if d := s.settleDistance(q, o, straight, region); d != straight {
			t.Fatalf("settleDistance %v, want the straight line %v", d, straight)
		}

		// ub clearly above the distance: the shared value, no new search.
		ub := straight * 1.001
		region = geom.NewEllipse(q.XY(), o.XY(), ub).MBR()
		want = s.path.DistanceWithin(q, o, region)
		before = s.path.Relaxations()
		got = s.clippedDistance(q, o, ub, region)
		if n := s.path.Relaxations() - before; n != 0 {
			t.Fatalf("ub above the distance relaxed %d arcs", n)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("clippedDistance %v, DistanceWithin %v", got, want)
		}
	}
}

// sameResult compares two answers bit for bit: neighbour ids in order, LB
// and UB bits, the page count, and every phase's pool hits, pool misses,
// R-tree visits and candidate/bound/iteration counters — all but the two
// counters the engine moves on purpose, Relaxations and LowerBounds. closed
// is the number of lower-bound estimations the reference ran on a closed
// range: the engine runs exactly those fewer.
func sameResult(t *testing.T, what string, got, want Result, closed int) {
	t.Helper()
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: %d neighbours, reference %d", what, len(got.Neighbors), len(want.Neighbors))
	}
	for i, g := range got.Neighbors {
		w := want.Neighbors[i]
		if g.Object.ID != w.Object.ID || math.Float64bits(g.LB) != math.Float64bits(w.LB) ||
			math.Float64bits(g.UB) != math.Float64bits(w.UB) {
			t.Fatalf("%s neighbour %d: (%d, [%v, %v]), reference (%d, [%v, %v])",
				what, i, g.Object.ID, g.LB, g.UB, w.Object.ID, w.LB, w.UB)
		}
	}
	if got.Cost.Pages() != want.Cost.Pages() {
		t.Fatalf("%s: %d pages, reference %d", what, got.Cost.Pages(), want.Cost.Pages())
	}
	if len(got.Cost.Phases) != len(want.Cost.Phases) {
		t.Fatalf("%s: %d phases, reference %d", what, len(got.Cost.Phases), len(want.Cost.Phases))
	}
	skipped := 0
	for i, g := range got.Cost.Phases {
		w := want.Cost.Phases[i]
		g.Wall, w.Wall = 0, 0
		// One shared search relaxes other arcs than a clipped search per
		// candidate does.
		g.Relaxations, w.Relaxations = 0, 0
		// An estimation on a closed range is not run, so not counted.
		skipped += w.LowerBounds - g.LowerBounds
		g.LowerBounds, w.LowerBounds = 0, 0
		// The reference asks the envelope on closed ranges too and caps no
		// bound, so its decision and cap counts are not the engine's.
		g.Envelope, w.Envelope = stats.EnvelopeTiers{}, stats.EnvelopeTiers{}
		g.CappedBounds, w.CappedBounds = 0, 0
		if g != w {
			t.Fatalf("%s phase %s:\n got       %+v\n reference %+v", what, g.Phase, g, w)
		}
	}
	if skipped != closed {
		t.Fatalf("%s: engine ran %d fewer lower-bound estimations, reference ran %d on closed ranges", what, skipped, closed)
	}
}

// refOptions turns the dummy lower bound on and off; every other option is
// the ranker's default.
var refOptions = []struct {
	name string
	opt  Options
}{
	{"default", Options{}},
	{"no-dummy", Options{DisableDummyLB: true}},
}

// TestUpperBoundPathMatchesReference runs every query form that reaches the
// upper-bound path or the ranker's lower-bound step — MR3, MR3SafeCtx,
// MR3ShippedCtx, SurfaceRange, EA — through the engine and through the
// reference paths above, on a rugged, a smooth and a flat terrain, under
// every schedule, k in {1, 5, 10} and the dummy lower bound on and off, one
// warm session each, and requires identical answers and identical I/O phase
// by phase.
func TestUpperBoundPathMatchesReference(t *testing.T) {
	for _, f := range refFixtures(t) {
		t.Run(f.name, func(t *testing.T) {
			s := f.db.NewSession()
			ref := newRefEngine(t, f.ref)
			// Another tile's objects, as a coordinator ships them: their
			// own positions, ids clear of the local ones.
			foreign, err := workload.RandomObjects(f.db.Mesh, f.db.Loc, 30, 2011)
			if err != nil {
				t.Fatal(err)
			}
			for i := range foreign {
				foreign[i].ID += 1 << 20
			}
			closedTotal := 0
			same := func(what string, got, want Result) {
				t.Helper()
				closed := ref.takeClosed()
				closedTotal += closed
				sameResult(t, what, got, want, closed)
			}
			for _, o := range refOptions {
				for _, sched := range []Schedule{S1, S2, S3} {
					for _, k := range []int{1, 5, 10} {
						for qi, q := range f.qs {
							what := fmt.Sprintf("%s sched %v k %d q %d", o.name, sched, k, qi)
							got, err := s.MR3Ctx(bg, q, k, sched, o.opt)
							if err != nil {
								t.Fatal(err)
							}
							want, err := ref.MR3(q, k, sched, o.opt)
							if err != nil {
								t.Fatal(err)
							}
							same("MR3 "+what, got, want)

							got, gotSR, err := s.MR3SafeCtx(bg, q, k, sched, o.opt)
							if err != nil {
								t.Fatal(err)
							}
							want, wantSR, err := ref.MR3Safe(q, k, sched, o.opt)
							if err != nil {
								t.Fatal(err)
							}
							same("MR3Safe "+what, got, want)
							if gotSR != wantSR {
								t.Fatalf("MR3Safe %s: safe region %+v, reference %+v", what, gotSR, wantSR)
							}

							// The sharded entry point with another tile's
							// objects injected: settled in one call, and
							// resumed (steps 1–2, then 3–4 at the returned
							// radius), which must agree bit for bit.
							var settledAns []Neighbor
							for _, arm := range []struct {
								name     string
								complete float64
							}{{"settled", math.Inf(1)}, {"resumed", 0}} {
								ship := &Shipped{Objs: foreign, Complete: arm.complete}
								got, gotR, gotSettled, err := s.MR3ShippedCtx(bg, q, k, sched, o.opt, ship)
								if err != nil {
									t.Fatal(err)
								}
								want, wantR, wantSettled, err := ref.MR3Shipped(q, k, sched, o.opt, ship)
								if err != nil {
									t.Fatal(err)
								}
								label := fmt.Sprintf("MR3Shipped %s %s", arm.name, what)
								same(label, got, want)
								if gotSettled != (arm.name == "settled") || wantSettled != gotSettled ||
									math.Float64bits(gotR) != math.Float64bits(wantR) {
									t.Fatalf("%s: settled %v radius %v, reference settled %v radius %v",
										label, gotSettled, gotR, wantSettled, wantR)
								}
								if gotSettled {
									settledAns = append([]Neighbor(nil), got.Neighbors...)
									continue
								}
								resume := &Shipped{Objs: foreign, Resume: true, Radius: gotR}
								got, _, gotSettled, err = s.MR3ShippedCtx(bg, q, k, sched, o.opt, resume)
								if err != nil {
									t.Fatal(err)
								}
								want, _, _, err = ref.MR3Shipped(q, k, sched, o.opt, resume)
								if err != nil {
									t.Fatal(err)
								}
								same(label+" resume", got, want)
								if !gotSettled {
									t.Fatalf("%s: a resumed call did not settle", label)
								}
								sameResult(t, label+" vs settled", got, Result{Neighbors: settledAns, Cost: got.Cost}, 0)
							}
						}
					}
					for qi, q := range f.qs {
						got, err := s.SurfaceRangeCtx(bg, q, f.radius, sched, o.opt)
						if err != nil {
							t.Fatal(err)
						}
						want, err := ref.SurfaceRange(q, f.radius, sched, o.opt)
						if err != nil {
							t.Fatal(err)
						}
						same(fmt.Sprintf("SurfaceRange %s sched %v q %d", o.name, sched, qi), got, want)
					}
				}
			}
			if closedTotal == 0 {
				t.Fatal("no query closed a range before its last lower-bound step: the skip is never taken")
			}
			for _, k := range []int{1, 5, 10} {
				for qi, q := range f.qs {
					got, err := s.EACtx(bg, q, k)
					if err != nil {
						t.Fatal(err)
					}
					want, err := ref.EA(q, k)
					if err != nil {
						t.Fatal(err)
					}
					same(fmt.Sprintf("EA k %d q %d", k, qi), got, want)
				}
			}
			if f.db.Pool.Stats() != f.ref.Pool.Stats() {
				t.Fatalf("pool counters: engine %+v, reference %+v", f.db.Pool.Stats(), f.ref.Pool.Stats())
			}
		})
	}
}

// TestDistanceQueryMatchesReference holds the distance query to the same
// reference: between every pair of the fixtures' query points and first
// objects, under every schedule and from a loose to a full accuracy, the
// range (bounds, accuracy, steps consumed) and the I/O are those of the loop
// that estimates a lower bound at every step.
func TestDistanceQueryMatchesReference(t *testing.T) {
	for _, f := range refFixtures(t) {
		t.Run(f.name, func(t *testing.T) {
			s := f.db.NewSession()
			ref := newRefEngine(t, f.ref)
			closedTotal := 0
			for _, sched := range []Schedule{S1, S2, S3} {
				for _, accuracy := range []float64{0.5, 0.9, 1} {
					for qi, a := range f.qs {
						for _, o := range f.db.Objects()[:6] {
							what := fmt.Sprintf("sched %v accuracy %v q %d obj %d", sched, accuracy, qi, o.ID)
							got, gotRes, err := s.DistanceWithAccuracyCtx(bg, a, o.Point, accuracy, sched)
							if err != nil {
								t.Fatal(err)
							}
							want, wantRes, err := ref.DistanceWithAccuracy(a, o.Point, accuracy, sched)
							if err != nil {
								t.Fatal(err)
							}
							if math.Float64bits(got.LB) != math.Float64bits(want.LB) || math.Float64bits(got.UB) != math.Float64bits(want.UB) ||
								math.Float64bits(got.Accuracy) != math.Float64bits(want.Accuracy) || got.Iterations != want.Iterations {
								t.Fatalf("%s: %+v, reference %+v", what, got, want)
							}
							closed := ref.takeClosed()
							closedTotal += closed
							sameResult(t, what, gotRes, wantRes, closed)
						}
					}
				}
			}
			if closedTotal == 0 {
				t.Fatal("no distance query reached its pathnet step: the skip is never taken")
			}
			if f.db.Pool.Stats() != f.ref.Pool.Stats() {
				t.Fatalf("pool counters: engine %+v, reference %+v", f.db.Pool.Stats(), f.ref.Pool.Stats())
			}
		})
	}
}

// BenchmarkUpperBoundNet times one upper-bound estimation from a fresh
// source, in place on the level network at 50 % and 100 %: the level's
// shared search seeded at the query and run until the candidate's bound is
// decided. settled/op is the vertices that search settles.
func BenchmarkUpperBoundNet(b *testing.B) {
	m := mesh.FromGrid(dem.Synthesize(dem.BH, 32, 50, 2006))
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		b.Fatal(err)
	}
	ext := db.Extent
	q, _ := db.SurfacePointAt(ext.Center())
	o, _ := db.SurfacePointAt(geom.Vec2{X: ext.MaxX - 90, Y: ext.MaxY - 110})
	est := db.NewSession().est
	for _, level := range []struct {
		name string
		res  float64
	}{{"50", 0.5}, {"100", 1.0}} {
		tm := db.Tree.TimeForResolution(level.res)
		b.Run(level.name, func(b *testing.B) {
			if math.IsInf(est.UpperBound(db.Mesh, q, o, tm), 1) {
				b.Fatal("the level network does not connect the pair")
			}
			settled0 := est.SharedSettled
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				est.ForgetSource()
				est.UpperBound(db.Mesh, q, o, tm)
			}
			b.ReportMetric(float64(est.SharedSettled-settled0)/float64(b.N), "settled/op")
		})
	}
}
