package core

import (
	"bytes"
	"math"
	"sync"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geodesic"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/sdn"
	"surfknn/internal/stats"
	"surfknn/internal/workload"
)

// Native fuzz targets. CI runs each for a few seconds as a smoke pass
// (scripts/check.sh); longer local runs dig deeper:
//
//	go test ./internal/core -run='^$' -fuzz=FuzzLoadSnapshot -fuzztime=60s

// fuzzDB lazily builds one small terrain database shared by the
// query-invariant fuzz targets (building per-input would drown the fuzzer
// in setup cost).
var fuzzDB struct {
	once sync.Once
	db   *TerrainDB
	err  error
}

func getFuzzDB(t testing.TB) *TerrainDB {
	fuzzDB.once.Do(func() {
		m := mesh.FromGrid(dem.Synthesize(dem.BH, 8, 10, 42))
		db, err := BuildTerrainDB(m, Config{})
		if err != nil {
			fuzzDB.err = err
			return
		}
		objs, err := workload.RandomObjects(m, db.Loc, 12, 7)
		if err != nil {
			fuzzDB.err = err
			return
		}
		db.SetObjects(objs)
		fuzzDB.db = db
	})
	if fuzzDB.err != nil {
		t.Fatal(fuzzDB.err)
	}
	return fuzzDB.db
}

// FuzzLoadSnapshot feeds arbitrary bytes to the snapshot loader. The
// contract under fuzzing: never panic, never allocate unboundedly from a
// forged header, and either return an error or a structurally valid
// database. This is the robustness gate for the persistence layer, whose
// silent corruption would poison every bound computed from the loaded
// structures.
func FuzzLoadSnapshot(f *testing.F) {
	// Seed with a genuine snapshot so mutations explore deep parse paths.
	// A 4x4 grid keeps the seed small (~15 KB): input minimisation re-runs
	// the loader thousands of times per interesting input, so seed size
	// directly bounds fuzzing throughput.
	m := mesh.FromGrid(dem.Synthesize(dem.BH, 4, 10, 42))
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		f.Fatal(err)
	}
	objs, err := workload.RandomObjects(m, db.Loc, 5, 7)
	if err != nil {
		f.Fatal(err)
	}
	db.SetObjects(objs)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		f.Fatal(err)
	}
	full := buf.Bytes()
	f.Add(full)
	f.Add(full[:len(full)/2])
	f.Add(full[:16])
	f.Add([]byte("SKNNDB03"))
	f.Add([]byte{})
	// Checksum-valid snapshots with a forged MSDN (unsorted points, duplicate
	// rank): the loader must refuse them, and mutations start next to the
	// MSDN validation paths.
	for _, forged := range forgedMSDNSnapshots(f, db) {
		f.Add(forged)
	}
	// Likewise for a DDM edge whose endpoint is outside the node table (the
	// level-network builder indexes by it)...
	for _, forged := range forgedTreeSnapshots(f, db) {
		f.Add(forged)
	}
	// ...and for a Dxy index whose nodes form a cycle or overrun a slab.
	for _, forged := range forgedIndexSnapshots(f, db) {
		f.Add(forged)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		db, err := Load(bytes.NewReader(data), Config{})
		if err != nil {
			return
		}
		// A snapshot the loader accepted must be structurally sound.
		if db.Mesh == nil || db.Mesh.NumVerts() < 3 {
			t.Fatalf("accepted snapshot produced invalid mesh")
		}
		if err := db.Tree.Validate(); err != nil {
			t.Fatalf("accepted snapshot fails tree validation: %v", err)
		}
		if err := db.MSDN.Validate(); err != nil {
			t.Fatalf("accepted snapshot fails MSDN validation: %v", err)
		}
		// Both Dxy searches must terminate on whatever index was accepted.
		c := db.Extent.Center()
		db.KNN2D(c, 3)
		db.Range2D(c, db.Extent.Width()+db.Extent.Height())
	})
}

// FuzzMR3Invariants drives MR3 from fuzzer-chosen query positions and k,
// checking the paper's §4 invariants on every answer: the result has
// exactly min(k, n) entries, each range satisfies LB <= UB, results are
// ranked by UB, and the k-set agrees with brute force under the reference
// metric. This is the bound-correctness guarantee the whole pruning
// argument rests on.
func FuzzMR3Invariants(f *testing.F) {
	f.Add(0.3, 0.7, uint8(3))
	f.Add(0.0, 0.0, uint8(1))
	f.Add(0.99, 0.01, uint8(12))
	// A query that sits on an object: that candidate's range is closed at
	// lb = ub = 0 from the first iteration on, so every later lower-bound
	// step of its skips the estimation.
	fx, fy := fuzzFractionsOnObject(f, getFuzzDB(f))
	f.Add(fx, fy, uint8(4))
	f.Fuzz(func(t *testing.T, fx, fy float64, kraw uint8) {
		db := getFuzzDB(t)
		q, ok := fuzzQueryPoint(db, fx, fy)
		if !ok {
			t.Skip("degenerate query position")
		}
		n := len(db.Objects())
		k := 1 + int(kraw)%n
		res, err := db.NewSession().MR3Ctx(bg, q, k, S2, Options{})
		if err != nil {
			t.Fatalf("MR3(%v, k=%d): %v", q.Pos, k, err)
		}
		if len(res.Neighbors) != k {
			t.Fatalf("got %d neighbours, want %d", len(res.Neighbors), k)
		}
		prev := math.Inf(-1)
		for i, nb := range res.Neighbors {
			if nb.LB > nb.UB*(1+1e-9)+1e-9 {
				t.Fatalf("neighbour %d: LB %v exceeds UB %v", i, nb.LB, nb.UB)
			}
			if nb.UB < prev {
				t.Fatalf("neighbour %d: results not ranked by UB (%v after %v)", i, nb.UB, prev)
			}
			prev = nb.UB
		}
		sameKSet(t, db, q, res.Neighbors, k)
	})
}

// FuzzDistanceRangeInvariants checks DistanceWithAccuracy's contract from
// fuzzer-chosen point pairs: the returned range brackets sanely
// (Euclidean floor <= LB <= UB) and meets the requested accuracy when it
// reports success. LB monotonicity across iterations is internal, but a
// violated ladder shows up here as LB > UB or accuracy above 1.
func FuzzDistanceRangeInvariants(f *testing.F) {
	f.Add(0.1, 0.2, 0.8, 0.9, 0.7)
	f.Add(0.5, 0.5, 0.51, 0.52, 0.95)
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, acc float64) {
		db := getFuzzDB(t)
		a, okA := fuzzQueryPoint(db, ax, ay)
		b, okB := fuzzQueryPoint(db, bx, by)
		if !okA || !okB {
			t.Skip("degenerate positions")
		}
		if math.IsNaN(acc) {
			t.Skip("NaN accuracy is rejected by validation")
		}
		accuracy := 0.05 + 0.9*clamp01(acc)
		out, _, err := db.NewSession().DistanceWithAccuracyCtx(bg, a, b, accuracy, S2)
		if err != nil {
			return // disconnected points are a legal error outcome
		}
		euclid := a.Pos.Dist(b.Pos)
		if out.LB < euclid*(1-1e-9)-1e-9 {
			t.Fatalf("LB %v below Euclidean floor %v", out.LB, euclid)
		}
		if out.LB > out.UB*(1+1e-9)+1e-9 {
			t.Fatalf("range inverted: LB %v > UB %v", out.LB, out.UB)
		}
		if out.Accuracy > 1+1e-9 {
			t.Fatalf("accuracy %v above 1", out.Accuracy)
		}
	})
}

// oracleTerrain is one generated terrain with its exact-geodesic solver.
type oracleTerrain struct {
	db     *TerrainDB
	solver *geodesic.Solver
}

// oracleTerrains caches the 17×17-sample terrains FuzzUpperBoundOracle draws
// from, keyed by (preset, seed): small enough that the Chen–Han oracle stays
// in the milliseconds, built once per fuzz worker.
var oracleTerrains struct {
	sync.Mutex
	m map[[2]uint8]*oracleTerrain
}

func getOracleTerrain(t testing.TB, preset, seed uint8) *oracleTerrain {
	preset, seed = preset%3, seed%4
	oracleTerrains.Lock()
	defer oracleTerrains.Unlock()
	key := [2]uint8{preset, seed}
	if ot := oracleTerrains.m[key]; ot != nil {
		return ot
	}
	var g *dem.Grid
	switch preset {
	case 0:
		g = dem.Synthesize(dem.BH, 16, 10, 3000+int64(seed))
	case 1:
		g = dem.Synthesize(dem.EP, 16, 10, 3000+int64(seed))
	default:
		g = dem.NewGrid(17, 17, 10) // flat: d_S is the straight line
	}
	m := mesh.FromGrid(g)
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ot := &oracleTerrain{db: db, solver: geodesic.NewSolver(m)}
	if oracleTerrains.m == nil {
		oracleTerrains.m = make(map[[2]uint8]*oracleTerrain)
	}
	oracleTerrains.m[key] = ot
	return ot
}

// FuzzUpperBoundOracle checks the upper half of the paper's guarantee,
// d_S <= ub, against ground truth: on generated rugged, smooth and flat
// terrains, for fuzzer-chosen pairs of surface points, every finite DMTM
// upper bound — at every ladder level, the estimator's level-network
// distance and the running minimum ranker.updateUB keeps — is at least the
// exact Chen–Han surface distance, and that running minimum never rises.
func FuzzUpperBoundOracle(f *testing.F) {
	f.Add(uint8(0), uint8(0), 0.1, 0.2, 0.8, 0.9)
	f.Add(uint8(1), uint8(1), 0.5, 0.5, 0.51, 0.62)
	f.Add(uint8(2), uint8(0), 0.25, 0.25, 0.75, 0.75) // flat, along the cells' diagonal
	f.Add(uint8(0), uint8(3), 0.02, 0.97, 0.98, 0.03)
	f.Fuzz(func(t *testing.T, preset, seed uint8, ax, ay, bx, by float64) {
		ot := getOracleTerrain(t, preset, seed)
		db := ot.db
		a, okA := fuzzQueryPoint(db, ax, ay)
		b, okB := fuzzQueryPoint(db, bx, by)
		if !okA || !okB {
			t.Skip("degenerate positions")
		}
		truth := ot.solver.Distance(a, b)
		sound := func(what string, res, ub float64) {
			t.Helper()
			if ub < truth*(1-1e-9) {
				t.Fatalf("%s at %v %%: upper bound %v below the surface distance %v", what, 100*res, ub, truth)
			}
		}

		s := db.NewSession()
		s.beginQuery(nil, algoMR3)
		s.ensureScratch(1)
		s.beginPhase(stats.PhaseRankC2)
		r := &s.rk
		r.begin(s, a, 1, S1, Options{}.withDefaults(), false)
		r.addCand(workload.Object{ID: 1, Point: b})
		c := &r.cands[0]
		for ri, res := range DMTMLadder {
			tm := db.rungTime[ri]
			sound("level network", res, s.est.UpperBound(db.Mesh, a, b, tm))
			before := c.ub
			r.updateUB(c, ri)
			if c.ub > before {
				t.Fatalf("at %v %%: the ranker's bound rose from %v to %v", 100*res, before, c.ub)
			}
			sound("ranker", res, c.ub)
		}
		if math.IsInf(c.ub, 1) {
			t.Fatalf("no level bounded the pair (surface distance %v)", truth)
		}
		if _, err := s.endQuery(algoMR3, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLowerBoundOracle checks the lower half of the paper's guarantee,
// lb <= d_S, against ground truth on FuzzUpperBoundOracle's terrains: at
// every SDNLadder level the bound, over the whole extent and over the
// ellipse rectangle of the upper bound so far, stays at or below the exact
// Chen–Han surface distance. Walking the sub-pathnet rungs as the ranker
// does (updateUB, then updateLB with the candidate's own upper bound as the
// k-th), lb <= d_S <= ub holds after every step. Bounds are compared across
// levels only where the plane step is the same (0.75 and 1.0 both cross
// every plane): across steps the chain need not be pointwise monotone,
// which is why the ranker keeps the maximum.
func FuzzLowerBoundOracle(f *testing.F) {
	f.Add(uint8(0), uint8(0), 0.1, 0.2, 0.8, 0.9)
	f.Add(uint8(1), uint8(1), 0.5, 0.5, 0.51, 0.62)
	f.Add(uint8(2), uint8(0), 0.25, 0.25, 0.75, 0.75) // flat: the bound can reach d_S
	f.Add(uint8(0), uint8(3), 0.02, 0.97, 0.98, 0.03)
	f.Add(uint8(2), uint8(2), 0.1, 0.5, 0.9, 0.5) // flat, along a grid line
	f.Fuzz(func(t *testing.T, preset, seed uint8, ax, ay, bx, by float64) {
		ot := getOracleTerrain(t, preset, seed)
		db := ot.db
		a, okA := fuzzQueryPoint(db, ax, ay)
		b, okB := fuzzQueryPoint(db, bx, by)
		if !okA || !okB {
			t.Skip("degenerate positions")
		}
		truth := ot.solver.Distance(a, b)
		sound := func(what string, res, lb float64) {
			t.Helper()
			if lb > truth*(1+1e-9) {
				t.Fatalf("%s at %v %%: lower bound %v above the surface distance %v", what, 100*res, lb, truth)
			}
		}

		s := db.NewSession()
		s.beginQuery(nil, algoMR3)
		s.ensureScratch(1)
		s.beginPhase(stats.PhaseRankC2)
		r := &s.rk
		r.begin(s, a, 1, S1, Options{}.withDefaults(), false)
		r.addCand(workload.Object{ID: 1, Point: b})
		c := &r.cands[0]
		ms := db.MSDN
		var sc sdn.Scratch
		prevStep, prevOne := 0, 0.0
		for _, res := range SDNLadder {
			region := r.regionOf(c)
			one := ms.LowerBoundScratch(&sc, a.Pos, b.Pos, db.Extent, res, math.Inf(1)).LB
			sound("whole extent", res, one)
			sound("ellipse region", res, ms.LowerBoundScratch(&sc, a.Pos, b.Pos, region, res, math.Inf(1)).LB)
			step := 1
			if res < 1 {
				step = int(math.Round(1 / res))
			}
			if step == prevStep && one < prevOne {
				t.Fatalf("at %v %%: bound %v fell from %v at the same plane step", 100*res, one, prevOne)
			}
			prevStep, prevOne = step, one
		}
		for ri := range rungs[:pathnetRung] {
			r.updateUB(c, ri)
			r.updateLB(c, rungs[ri].msdn, c.ub)
			if c.lb > truth*(1+1e-9) || c.ub < truth*(1-1e-9) {
				t.Fatalf("rung %d: range [%v, %v] misses the surface distance %v", ri, c.lb, c.ub, truth)
			}
		}
		if _, err := s.endQuery(algoMR3, 1, nil, nil); err != nil {
			t.Fatal(err)
		}
	})
}

// fuzzQueryPoint maps two arbitrary floats onto a surface point inside the
// terrain extent.
func fuzzQueryPoint(db *TerrainDB, fx, fy float64) (mesh.SurfacePoint, bool) {
	if math.IsNaN(fx) || math.IsNaN(fy) {
		return mesh.SurfacePoint{}, false
	}
	ext := db.Mesh.Extent()
	p := geom.Vec2{
		X: ext.MinX + clamp01(fx)*ext.Width(),
		Y: ext.MinY + clamp01(fy)*ext.Height(),
	}
	q, err := db.SurfacePointAt(p)
	if err != nil {
		return mesh.SurfacePoint{}, false
	}
	return q, true
}

// fuzzFractionsOnObject returns fuzz inputs that fuzzQueryPoint maps exactly
// onto one of the database's objects.
func fuzzFractionsOnObject(t testing.TB, db *TerrainDB) (fx, fy float64) {
	ext := db.Mesh.Extent()
	for _, o := range db.Objects() {
		fx, fy = (o.Point.Pos.X-ext.MinX)/ext.Width(), (o.Point.Pos.Y-ext.MinY)/ext.Height()
		if q, ok := fuzzQueryPoint(db, fx, fy); ok && q.Pos == o.Point.Pos {
			return fx, fy
		}
	}
	t.Fatal("no object's position survives the round trip through the fuzz fractions")
	return 0, 0
}

// clamp01 folds an arbitrary finite float into [0, 1].
func clamp01(v float64) float64 {
	v = math.Abs(math.Mod(v, 1))
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0.5
	}
	return v
}
