package core

import (
	"math"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

func TestMaskedKNNUnconstrainedMatchesMR3Set(t *testing.T) {
	db := buildDB(t, dem.EP, 16, 40, 1515)
	q := queryPoints(t, db, 1, 66)[0]
	k := 5
	all := func(mesh.FaceID) bool { return true }
	masked, err := db.NewSession().MaskedKNNCtx(bg, q, k, all)
	if err != nil {
		t.Fatal(err)
	}
	sameKSet(t, db, q, masked, k)
	// Masked distances are the reference distances.
	for _, n := range masked {
		want := db.ReferenceDistance(q, n.Object.Point)
		if math.Abs(n.UB-want) > 1e-9*(1+want) {
			t.Errorf("masked distance %v != reference %v", n.UB, want)
		}
	}
}

func TestMaskedKNNObstacleForcesDetour(t *testing.T) {
	// Flat terrain with a wall of blocked faces between query and object:
	// the masked distance must exceed the unconstrained one.
	g := dem.NewGrid(17, 17, 10)
	m := mesh.FromGrid(g)
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	loc := db.Loc
	mk := func(x, y float64) mesh.SurfacePoint {
		sp, err := mesh.MakeSurfacePoint(m, loc, geom.Vec2{X: x, Y: y})
		if err != nil {
			t.Fatal(err)
		}
		return sp
	}
	q := mk(20, 80)
	obj := workload.Object{ID: 1, Point: mk(140, 80)}
	db.SetObjects([]workload.Object{obj})

	free, err := db.NewSession().MaskedKNNCtx(bg, q, 1, func(mesh.FaceID) bool { return true })
	if err != nil {
		t.Fatal(err)
	}
	// Block a vertical wall (wider than one grid cell so both triangles of
	// every crossed cell are masked) with a gap at the bottom.
	wall := geom.MBR{MinX: 65, MinY: 20, MaxX: 95, MaxY: 170}
	mask := RegionMask(m, []geom.MBR{wall})
	detour, err := db.NewSession().MaskedKNNCtx(bg, q, 1, mask)
	if err != nil {
		t.Fatal(err)
	}
	if len(detour) != 1 {
		t.Fatalf("detour results = %d", len(detour))
	}
	if detour[0].UB <= free[0].UB+10 {
		t.Errorf("detour %v should clearly exceed free %v", detour[0].UB, free[0].UB)
	}
	// Sealing the object off entirely: unreachable → excluded.
	sealed := RegionMask(m, []geom.MBR{{MinX: 65, MinY: -10, MaxX: 95, MaxY: 170}})
	none, err := db.NewSession().MaskedKNNCtx(bg, q, 1, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("sealed-off object still returned: %v", none)
	}
}

func TestSlopeMask(t *testing.T) {
	// Flat mesh: every face passes any positive slope limit.
	flat := mesh.FromGrid(dem.NewGrid(5, 5, 10))
	mask := SlopeMask(flat, 1)
	for f := 0; f < flat.NumFaces(); f++ {
		if !mask(mesh.FaceID(f)) {
			t.Fatalf("flat face %d rejected", f)
		}
	}
	// Rugged mesh: a tight limit rejects some faces, a loose one accepts all.
	rough := mesh.FromGrid(dem.Synthesize(dem.BH, 16, 10, 3))
	tight := SlopeMask(rough, 10)
	loose := SlopeMask(rough, 89)
	rejected := 0
	for f := 0; f < rough.NumFaces(); f++ {
		if !tight(mesh.FaceID(f)) {
			rejected++
		}
		if !loose(mesh.FaceID(f)) {
			t.Fatalf("loose mask rejected face %d", f)
		}
	}
	if rejected == 0 {
		t.Error("tight slope mask rejected nothing on rugged terrain")
	}
}

func TestMaskedKNNErrors(t *testing.T) {
	db := buildDB(t, dem.EP, 8, 10, 1616)
	q := queryPoints(t, db, 1, 67)[0]
	if _, err := db.NewSession().MaskedKNNCtx(bg, q, 3, nil); err == nil {
		t.Error("nil mask should error")
	}
	if _, err := db.NewSession().MaskedKNNCtx(bg, q, 0, func(mesh.FaceID) bool { return true }); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := db.NewSession().MaskedKNNCtx(bg, q, 3, func(mesh.FaceID) bool { return false }); err == nil {
		t.Error("all-blocked mask should error")
	}
	blockQ := func(f mesh.FaceID) bool { return f != q.Face }
	if _, err := db.NewSession().MaskedKNNCtx(bg, q, 3, blockQ); err == nil {
		t.Error("blocked query face should error")
	}
}

func TestAndMask(t *testing.T) {
	a := func(f mesh.FaceID) bool { return f%2 == 0 }
	b := func(f mesh.FaceID) bool { return f < 10 }
	m := AndMask(a, b)
	if !m(4) || m(5) || m(12) {
		t.Error("AndMask conjunction wrong")
	}
}

func TestDistanceWithAccuracy(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 5, 1717)
	ext := db.Mesh.Extent()
	a, err := db.SurfacePointAt(geom.Vec2{X: ext.MinX + 10, Y: ext.MinY + 12})
	if err != nil {
		t.Fatal(err)
	}
	b, err := db.SurfacePointAt(geom.Vec2{X: ext.MaxX - 11, Y: ext.MaxY - 13})
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := db.NewSession().DistanceWithAccuracyCtx(bg, a, b, 0.5, S1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accuracy < 0.5 {
		t.Errorf("accuracy %v below requested 0.5", r.Accuracy)
	}
	truth := db.ReferenceDistance(a, b)
	if r.LB > truth+1e-6*(1+truth) || r.UB < truth-1e-6*(1+truth) {
		t.Errorf("range [%v,%v] misses reference %v", r.LB, r.UB, truth)
	}
	// Requesting full accuracy runs the whole ladder and collapses at the
	// pathnet level.
	r2, _, err := db.NewSession().DistanceWithAccuracyCtx(bg, a, b, 1.0, S1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Accuracy < 0.999 {
		t.Errorf("full-ladder accuracy %v should collapse to 1", r2.Accuracy)
	}
	if math.Abs(r2.UB-truth) > 1e-9*(1+truth) {
		t.Errorf("collapsed UB %v != reference %v", r2.UB, truth)
	}
	// Invalid accuracy.
	if _, _, err := db.NewSession().DistanceWithAccuracyCtx(bg, a, b, 0, S1); err == nil {
		t.Error("accuracy 0 should error")
	}
	if _, _, err := db.NewSession().DistanceWithAccuracyCtx(bg, a, b, 1.5, S1); err == nil {
		t.Error("accuracy >1 should error")
	}
}
