package multires

import (
	"math/rand"
	"testing"

	"surfknn/internal/mesh"
)

// FuzzSharedUpperBound streams targets at one estimator — the shared
// search's use — on BH, EP, FLAT and the 3×3 terrain. Each op is three
// bytes: the target's kind (a random face point, one on the source's face,
// one on a face sharing a corner, a mesh vertex) and whether it lands on a
// vertex; a ladder time; and what happens first — nothing, a new source
// (which reseeds the level) or ForgetSource. Every answer must be
// refUpperBound's bits, whatever came before it, and the reference path
// must stay inside the pair's ellipse.
func FuzzSharedUpperBound(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0, 0, 0, 1, 1, 1, 2, 2, 4, 3, 3, 5, 4, 4, 9, 5, 0, 13})
	f.Add(uint8(1), int64(2), []byte{1, 2, 1, 6, 3, 0, 3, 4, 2, 7, 1, 17, 0, 0, 5})
	f.Add(uint8(2), int64(3), []byte{1, 0, 0, 1, 1, 0, 3, 2, 1, 5, 3, 4, 7, 4, 0, 1, 0, 9, 1, 1, 13})
	f.Add(uint8(3), int64(4), []byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3})
	fixtures := estimatorFixtures(f)
	f.Fuzz(func(t *testing.T, fix uint8, seed int64, ops []byte) {
		fx := fixtures[int(fix)%len(fixtures)]
		rng := rand.New(rand.NewSource(seed))
		times := fx.times()
		est := NewEstimator(fx.tr)
		source := func() mesh.SurfacePoint {
			if rng.Intn(2) == 0 {
				return vertexPoint(fx.m, rng)
			}
			return facePoint(fx.m, mesh.FaceID(rng.Intn(fx.m.NumFaces())), rng)
		}
		a := source()
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		for i := 0; i+3 <= len(ops); i += 3 {
			op, tmSel, first := ops[i], ops[i+1], ops[i+2]
			switch first % 8 {
			case 5:
				a = source()
			case 6:
				est.ForgetSource()
			}
			tm := times[int(tmSel)%len(times)]
			kind := int(op>>1) % 4
			if op&1 == 1 {
				kind = 3
			}
			b := pairPoint(fx.m, a, kind, rng)
			sameEstimate(t, "shared", fx, a, b, est.UpperBound(fx.m, a, b, tm), refUpperBound(fx, a, b, tm))
		}
	})
}

// TestSharedSearchHistoryIndependent: an estimation gives the same bits
// whatever the estimator ran before (other targets, other levels, other
// sources) and after ForgetSource, and a warm estimation allocates nothing.
func TestSharedSearchHistoryIndependent(t *testing.T) {
	f := estimatorFixtures(t)[0]
	rng := rand.New(rand.NewSource(31))
	ladder := f.times()
	tm := ladder[len(ladder)/2]
	point := func() mesh.SurfacePoint { return facePoint(f.m, mesh.FaceID(rng.Intn(f.m.NumFaces())), rng) }
	a := point()
	others := make([]mesh.SurfacePoint, 16)
	for i := range others {
		others[i] = point()
	}
	est := NewEstimator(f.tr)
	for _, b := range others[:4] {
		want := refUpperBound(f, a, b, tm)
		if len(want.Path) == 0 {
			t.Fatal("no reference path: the pair is too close to exercise the search")
		}
		check := func(after string) {
			t.Helper()
			sameEstimate(t, "after "+after, f, a, b, est.UpperBound(f.m, a, b, tm), want)
		}
		check("nothing")
		for _, o := range others { // other targets, from near to far
			est.UpperBound(f.m, a, o, tm)
		}
		check("other targets")
		for _, l := range ladder { // other levels
			for _, o := range others[:4] {
				est.UpperBound(f.m, a, o, l)
			}
		}
		check("other levels")
		for _, o := range others[:4] { // other sources reseed the level
			est.UpperBound(f.m, o, b, tm)
			est.UpperBound(f.m, o, a, tm)
		}
		check("other sources")
		est.ForgetSource()
		check("ForgetSource")
	}

	if raceEnabled {
		return // allocation counts are unreliable under -race
	}
	b := others[0]
	est.UpperBound(f.m, a, b, tm)
	if n := testing.AllocsPerRun(20, func() {
		est.UpperBound(f.m, a, b, tm)
	}); n != 0 {
		t.Fatalf("warm estimation allocates %.1f times, want 0", n)
	}
}
