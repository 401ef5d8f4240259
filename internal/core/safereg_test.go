package core

import (
	"math"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
)

// TestSafeRegionInvariant is the golden safe-region test: for every query
// point and every k, brute-force re-querying MR3 from a polar grid of
// perturbed points inside the reported radius must return the same top-k
// IDs in the same order. This is the property the continuous-query layer's
// zero-cost hit path rests on.
func TestSafeRegionInvariant(t *testing.T) {
	for _, preset := range []dem.Preset{dem.EP, dem.BH} {
		db := buildDB(t, preset, 16, 60, 7)
		qs := queryPoints(t, db, 12, 99)
		sess := db.NewSession()

		positive := 0
		var relaxations int64
		for _, q := range qs {
			for _, k := range []int{1, 3, 5} {
				res, sr, err := sess.MR3SafeCtx(nil, q, k, S1, Options{})
				if err != nil {
					t.Fatalf("MR3SafeCtx(%v, k=%d): %v", q.XY(), k, err)
				}
				relaxations += res.Cost.Total().Relaxations
				if math.IsNaN(sr.Radius) || sr.Radius < 0 {
					t.Fatalf("invalid safe radius %g at %v k=%d", sr.Radius, q.XY(), k)
				}
				if sr.Guard < sr.Radius {
					t.Fatalf("guard %g < radius %g at %v k=%d", sr.Guard, sr.Radius, q.XY(), k)
				}
				if sr.Center != q.XY() {
					t.Fatalf("center %v != query %v", sr.Center, q.XY())
				}
				if sr.Radius == 0 {
					continue
				}
				positive++

				// The baseline answer must be bit-identical to plain MR3 at
				// the same epoch — MR3Safe is MR3 plus read-only geometry.
				plain, err := db.NewSession().MR3Ctx(bg, q, k, S1, Options{})
				if err != nil {
					t.Fatal(err)
				}
				requireSameRanking(t, res.Neighbors, plain.Neighbors, "MR3Safe vs MR3")

				for _, frac := range []float64{0.35, 0.8, 0.999} {
					for step := 0; step < 8; step++ {
						angle := float64(step) * math.Pi / 4
						p := geom.Vec2{
							X: sr.Center.X + sr.Radius*frac*math.Cos(angle),
							Y: sr.Center.Y + sr.Radius*frac*math.Sin(angle),
						}
						if !sr.Contains(p) {
							t.Fatalf("perturbed point %v escaped region r=%g", p, sr.Radius)
						}
						qp, err := db.SurfacePointAt(p)
						if err != nil {
							// The radius is clamped below the face clearance,
							// so the perturbed point must stay on the surface.
							t.Fatalf("perturbed point %v left the surface: %v", p, err)
						}
						re, err := db.NewSession().MR3Ctx(bg, qp, k, S1, Options{})
						if err != nil {
							t.Fatalf("re-query at %v: %v", p, err)
						}
						requireSameRanking(t, res.Neighbors, re.Neighbors, "perturbed re-query")
					}
				}
			}
		}
		if positive == 0 {
			t.Fatal("no query produced a positive safe radius; the invariant was never exercised")
		}
		if relaxations == 0 {
			t.Fatal("Cost.Relaxations stayed 0 across all fresh queries; the relaxation accounting is broken")
		}
	}
}

func requireSameRanking(t *testing.T, want, got []Neighbor, what string) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d neighbours, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i].Object.ID != got[i].Object.ID {
			t.Fatalf("%s: rank %d is object %d, want %d", what, i+1, got[i].Object.ID, want[i].Object.ID)
		}
	}
}

// TestSafeRegionGuard checks the guard geometry: the guard disc covers the
// step-3 search radius plus the move budget, and GuardMBR boxes it.
func TestSafeRegionGuard(t *testing.T) {
	db := buildDB(t, dem.EP, 8, 40, 3)
	q := queryPoints(t, db, 1, 5)[0]
	_, sr, err := db.NewSession().MR3SafeCtx(bg, q, 3, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sr.Guard <= 0 {
		t.Fatalf("guard %g must be positive for a successful query", sr.Guard)
	}
	m := sr.GuardMBR()
	for _, p := range []geom.Vec2{
		{X: sr.Center.X + sr.Guard, Y: sr.Center.Y},
		{X: sr.Center.X, Y: sr.Center.Y - sr.Guard},
	} {
		if p.X < m.MinX || p.X > m.MaxX || p.Y < m.MinY || p.Y > m.MaxY {
			t.Fatalf("guard-disc point %v outside GuardMBR %+v", p, m)
		}
	}
}
