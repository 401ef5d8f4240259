package core

import (
	"math"
	"testing"

	"surfknn/internal/dem"
)

func TestSurfaceRangeMatchesBruteForce(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 60, 808)
	q := queryPoints(t, db, 1, 62)[0]
	// Pick a radius that catches a handful of objects: the brute-force
	// 5th-nearest distance.
	bf := db.NewSession().BruteForce(q, 5)
	radius := bf[4].UB * 1.001
	res, err := db.NewSession().SurfaceRangeCtx(bg, q, radius, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Brute-force membership.
	want := map[int64]bool{}
	for _, o := range db.Objects() {
		if db.ReferenceDistance(q, o.Point) <= radius {
			want[o.ID] = true
		}
	}
	got := map[int64]bool{}
	for _, n := range res.Neighbors {
		got[n.Object.ID] = true
	}
	tol := 1e-6 * (1 + radius)
	for id := range want {
		if !got[id] {
			o, _ := db.Object(id)
			d := db.ReferenceDistance(q, o.Point)
			if d < radius-tol {
				t.Errorf("object %d (d=%v) missing from range %v", id, d, radius)
			}
		}
	}
	for id := range got {
		if !want[id] {
			o, _ := db.Object(id)
			d := db.ReferenceDistance(q, o.Point)
			if d > radius+tol {
				t.Errorf("object %d (d=%v) wrongly in range %v", id, d, radius)
			}
		}
	}
	// Results sorted by upper bound.
	for i := 1; i < len(res.Neighbors); i++ {
		if res.Neighbors[i-1].UB > res.Neighbors[i].UB {
			t.Error("range results not sorted")
		}
	}
}

func TestSurfaceRangeEdgeCases(t *testing.T) {
	db := buildDB(t, dem.EP, 8, 10, 909)
	q := queryPoints(t, db, 1, 63)[0]
	// Zero radius: at most an object exactly at q (none here).
	res, err := db.NewSession().SurfaceRangeCtx(bg, q, 0, S3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != 0 {
		t.Errorf("zero radius returned %d objects", len(res.Neighbors))
	}
	// Huge radius: everything.
	res, err = db.NewSession().SurfaceRangeCtx(bg, q, 1e9, S3, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Neighbors) != len(db.Objects()) {
		t.Errorf("huge radius returned %d of %d objects", len(res.Neighbors), len(db.Objects()))
	}
	// Invalid radius.
	if _, err := db.NewSession().SurfaceRangeCtx(bg, q, math.NaN(), S3, Options{}); err == nil {
		t.Error("NaN radius should error")
	}
	if _, err := db.NewSession().SurfaceRangeCtx(bg, q, -1, S3, Options{}); err == nil {
		t.Error("negative radius should error")
	}
}

func TestClosestPairMatchesBruteForce(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 25, 1010)
	a, b, err := db.NewSession().ClosestPairCtx(bg, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Object.ID == b.Object.ID {
		t.Fatal("closest pair returned the same object twice")
	}
	// Brute force over all pairs.
	objs := db.Objects()
	best := math.Inf(1)
	for i := 0; i < len(objs); i++ {
		for j := i + 1; j < len(objs); j++ {
			d := db.ReferenceDistance(objs[i].Point, objs[j].Point)
			if d < best {
				best = d
			}
		}
	}
	if math.Abs(a.UB-best) > 1e-6*(1+best) {
		t.Errorf("closest pair distance %v, brute force %v", a.UB, best)
	}
}

func TestClosestPairErrors(t *testing.T) {
	db := buildDB(t, dem.EP, 8, 1, 1111)
	if _, _, err := db.NewSession().ClosestPairCtx(bg, S2, Options{}); err == nil {
		t.Error("single object should error")
	}
}
