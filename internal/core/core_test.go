package core

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

// bg is the context of every test query that exercises no cancellation.
var bg = context.Background()

// testDB builds a small terrain database with objects, shared across tests
// via subtests to amortise construction.
func buildDB(t testing.TB, preset dem.Preset, size int, nObjects int, seed int64) *TerrainDB {
	t.Helper()
	m := mesh.FromGrid(dem.Synthesize(preset, size, 10, seed))
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := workload.RandomObjects(m, db.Loc, nObjects, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	db.SetObjects(objs)
	return db
}

func queryPoints(t testing.TB, db *TerrainDB, n int, seed int64) []mesh.SurfacePoint {
	t.Helper()
	qs, err := workload.RandomQueries(db.Mesh, db.Loc, n, db.Mesh.Extent().Width()/10, seed)
	if err != nil {
		t.Fatal(err)
	}
	return qs
}

func idsOf(ns []Neighbor) map[int64]bool {
	out := make(map[int64]bool, len(ns))
	for _, n := range ns {
		out[n.Object.ID] = true
	}
	return out
}

// sameKSet compares result sets allowing ties at the boundary: every
// returned object must have reference distance <= the brute-force k-th
// distance (within tolerance).
func sameKSet(t *testing.T, db *TerrainDB, q mesh.SurfacePoint, got []Neighbor, k int) {
	t.Helper()
	want := db.NewSession().BruteForce(q, k)
	if len(got) != len(want) {
		t.Fatalf("got %d neighbours, want %d", len(got), len(want))
	}
	kth := want[len(want)-1].UB
	tol := 1e-6 * (1 + kth)
	wantIDs := idsOf(want)
	for _, n := range got {
		if wantIDs[n.Object.ID] {
			continue
		}
		// Not in the brute-force set: must be a tie at the boundary.
		d := db.ReferenceDistance(q, n.Object.Point)
		if d > kth+tol {
			t.Errorf("object %d (d=%v) in result but true k-th distance is %v", n.Object.ID, d, kth)
		}
	}
}

// TestMR3MatchesBruteForce holds MR3's answer to the brute-force k-set on a
// small BH terrain and on BH and EP 32² under every schedule, from k = 1 to
// k = 50: bounds decided early are where a wrong bound would show.
func TestMR3MatchesBruteForce(t *testing.T) {
	cases := []struct {
		name string
		db   *TerrainDB
		qs   int
		ks   []int
	}{
		{"BH16", buildDB(t, dem.BH, 16, 60, 101), 4, []int{1, 3, 8}},
		{"BH32", buildDB(t, dem.BH, 32, 120, 102), 2, []int{1, 10, 50}},
		{"EP32", buildDB(t, dem.EP, 32, 120, 103), 2, []int{1, 10, 50}},
	}
	for _, c := range cases {
		db := c.db
		qs := queryPoints(t, db, c.qs, 55)
		for _, sched := range []Schedule{S1, S2, S3} {
			for _, k := range c.ks {
				for qi, q := range qs {
					res, err := db.NewSession().MR3Ctx(bg, q, k, sched, Options{})
					if err != nil {
						t.Fatalf("%s s=%d k=%d q%d: %v", c.name, sched, k, qi, err)
					}
					if len(res.Neighbors) != k {
						t.Fatalf("%s s=%d k=%d q%d: %d neighbours", c.name, sched, k, qi, len(res.Neighbors))
					}
					sameKSet(t, db, q, res.Neighbors, k)
					// Ranges must bracket the reference distance.
					for _, n := range res.Neighbors {
						d := db.ReferenceDistance(q, n.Object.Point)
						if n.LB > d+1e-6*(1+d) || n.UB < d-1e-6*(1+d) {
							t.Errorf("%s s=%d k=%d: range [%v,%v] misses reference %v", c.name, sched, k, n.LB, n.UB, d)
						}
					}
				}
			}
		}
	}
}

func TestEAMatchesBruteForce(t *testing.T) {
	db := buildDB(t, dem.EP, 16, 50, 202)
	qs := queryPoints(t, db, 3, 56)
	for _, k := range []int{1, 5} {
		for qi, q := range qs {
			res, err := db.NewSession().EACtx(bg, q, k)
			if err != nil {
				t.Fatalf("k=%d q%d: %v", k, qi, err)
			}
			if len(res.Neighbors) != k {
				t.Fatalf("k=%d q%d: %d neighbours", k, qi, len(res.Neighbors))
			}
			sameKSet(t, db, q, res.Neighbors, k)
		}
	}
}

func TestMR3AndEAAgree(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 40, 303)
	q := queryPoints(t, db, 1, 57)[0]
	k := 5
	mr3, err := db.NewSession().MR3Ctx(bg, q, k, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ea, err := db.NewSession().EACtx(bg, q, k)
	if err != nil {
		t.Fatal(err)
	}
	// Compare the k-th reference distances of the two sets (MR3's final
	// upper bounds may be loose once the set is determined, so compare
	// under the reference metric; sets may permute on ties).
	mrK, eaK := 0.0, 0.0
	for _, n := range mr3.Neighbors {
		mrK = math.Max(mrK, db.ReferenceDistance(q, n.Object.Point))
	}
	for _, n := range ea.Neighbors {
		eaK = math.Max(eaK, db.ReferenceDistance(q, n.Object.Point))
	}
	if math.Abs(mrK-eaK) > 1e-6*(1+eaK) {
		t.Errorf("k-th distance: MR3 %v vs EA %v", mrK, eaK)
	}
}

func TestMR3MetricsPopulated(t *testing.T) {
	db := buildDB(t, dem.EP, 16, 40, 404)
	q := queryPoints(t, db, 1, 58)[0]
	res, err := db.NewSession().MR3Ctx(bg, q, 5, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics()
	if m.Pages == 0 || m.UpperBounds == 0 || m.LowerBounds == 0 || m.Iterations == 0 {
		t.Errorf("metrics not populated: %+v", m)
	}
	if m.Elapsed < m.CPU {
		t.Errorf("elapsed %v below cpu %v", m.Elapsed, m.CPU)
	}
}

func TestIOIntegrationReducesPages(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 80, 505)
	q := queryPoints(t, db, 1, 59)[0]
	k := 10
	on, err := db.NewSession().MR3Ctx(bg, q, k, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	off, err := db.NewSession().MR3Ctx(bg, q, k, S2, Options{DisableIOIntegration: true})
	if err != nil {
		t.Fatal(err)
	}
	if on.Metrics().Pages > off.Metrics().Pages {
		t.Errorf("integration on: %d pages, off: %d pages (on should not exceed off)",
			on.Metrics().Pages, off.Metrics().Pages)
	}
	// Same answer either way.
	sameKSet(t, db, q, on.Neighbors, k)
	sameKSet(t, db, q, off.Neighbors, k)
}

func TestDummyLBSameAnswer(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 60, 606)
	q := queryPoints(t, db, 1, 60)[0]
	k := 6
	with, err := db.NewSession().MR3Ctx(bg, q, k, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := db.NewSession().MR3Ctx(bg, q, k, S1, Options{DisableDummyLB: true})
	if err != nil {
		t.Fatal(err)
	}
	sameKSet(t, db, q, with.Neighbors, k)
	sameKSet(t, db, q, without.Neighbors, k)
}

// TestScheduleAccessors holds the rung table to the paper's three schedules
// (§5.3) as lists of resolutions, each ladder clamped to its last entry, and
// to the ladders assembly materialises.
func TestScheduleAccessors(t *testing.T) {
	const net = PathnetResolution
	for _, c := range []struct {
		s          Schedule
		dmtm, msdn []float64
	}{
		{S1, []float64{0.005, 0.25, 0.5, 0.75, 1.0, net}, []float64{0.25, 0.375, 0.5, 0.75, 1.0}},
		{S2, []float64{0.005, 0.5, 1.0, net}, []float64{0.25, 0.5, 1.0}},
		{S3, []float64{0.005, 1.0, net}, []float64{0.25, 1.0}},
	} {
		if c.s.Steps() != len(c.dmtm) {
			t.Errorf("s=%d: %d steps, want %d", c.s, c.s.Steps(), len(c.dmtm))
		}
		for i := 0; i < len(c.dmtm)+2; i++ {
			dm, ms := c.s.At(i)
			if dm != c.dmtm[min(i, len(c.dmtm)-1)] || ms != c.msdn[min(i, len(c.msdn)-1)] {
				t.Errorf("s=%d: At(%d) = %v, %v", c.s, i, dm, ms)
			}
		}
	}
	if !reflect.DeepEqual(DMTMLadder, []float64{0.005, 0.25, 0.5, 0.75, 1.0}) ||
		!reflect.DeepEqual(SDNLadder, []float64{0.25, 0.375, 0.5, 0.75, 1.0}) {
		t.Errorf("ladders DMTM %v, SDN %v", DMTMLadder, SDNLadder)
	}
	for _, s := range []Schedule{0, S3 + 1} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "core: ") {
					t.Errorf("Schedule(%d).Steps(): panic %q, want a core: panic", s, msg)
				}
			}()
			s.Steps()
		}()
	}
}

// TestUnmaterialisedLevelPanics pins the kernels' contract: neither bound
// builds tables for a level assembly did not materialise (no schedule names
// one), and a call at one panics with its package's prefix instead.
func TestUnmaterialisedLevelPanics(t *testing.T) {
	db := buildDB(t, dem.BH, 32, 2, 3)
	ext := db.Extent
	a, errA := db.SurfacePointAt(geom.Vec2{X: ext.MinX + 15, Y: ext.MinY + 25})
	b, errB := db.SurfacePointAt(geom.Vec2{X: ext.MaxX - 35, Y: ext.MaxY - 5})
	if errA != nil || errB != nil || a.Face == b.Face {
		t.Fatalf("query points: %v, %v", errA, errB)
	}
	tm := db.Tree.TimeForResolution(0.1)
	for _, lt := range db.rungTime {
		if lt == tm {
			t.Fatalf("resolution 0.1 rounds to a ladder time (%d) here", tm)
		}
	}
	panics := func(prefix string, call func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.HasPrefix(msg, prefix) {
				t.Errorf("panic %q, want one prefixed %q", msg, prefix)
			}
		}()
		call()
	}
	panics("sdn: ", func() { db.MSDN.LowerBound(a.Pos, b.Pos, ext, 0.6) })
	panics("multires: ", func() { db.NewSession().est.UpperBound(db.Mesh, a, b, tm) })
}

func TestMR3ErrorsWithoutObjects(t *testing.T) {
	m := mesh.FromGrid(dem.Synthesize(dem.EP, 8, 10, 1))
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	q, _ := db.SurfacePointAt(m.Extent().Center())
	if _, err := db.NewSession().MR3Ctx(bg, q, 3, S1, Options{}); err == nil {
		t.Error("MR3 without objects should error")
	}
	if _, err := db.NewSession().EACtx(bg, q, 3); err == nil {
		t.Error("EA without objects should error")
	}
	db.SetObjects(nil)
	if _, err := db.NewSession().MR3Ctx(bg, q, 0, S1, Options{}); err == nil {
		t.Error("k=0 should error")
	}
}

func TestKLargerThanObjects(t *testing.T) {
	db := buildDB(t, dem.EP, 8, 5, 707)
	q := queryPoints(t, db, 1, 61)[0]
	res, err := db.NewSession().MR3Ctx(bg, q, 10, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 5 {
		t.Errorf("neighbours = %d, want all 5 objects", len(res.Neighbors))
	}
}

// meshFromGrid is a tiny helper shared by persistence tests.
func meshFromGrid(g *dem.Grid) *mesh.Mesh { return mesh.FromGrid(g) }
