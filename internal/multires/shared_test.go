package multires

import (
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

// pathBoxes returns n boxes of half-size frac of the extent centred along the
// straight segment from a to b: the shape of a coarse path's refined regions.
func pathBoxes(f estimatorFixture, a, b mesh.SurfacePoint, n int, frac float64) []geom.MBR {
	ext := f.m.Extent()
	hx, hy := ext.Width()*frac, ext.Height()*frac
	out := make([]geom.MBR, n)
	for i := range out {
		s := (float64(i) + 0.5) / float64(n)
		c := a.XY().Add(b.XY().Sub(a.XY()).Scale(s))
		out[i] = geom.MBR{MinX: c.X - hx, MinY: c.Y - hy, MaxX: c.X + hx, MaxY: c.Y + hy}
	}
	return out
}

// FuzzSharedUpperBound streams targets at one estimator from one source —
// the shared search's use — on BH, EP, FLAT and the 3×3 terrain: per op a
// target (on a face or a mesh vertex, where flat ground ties), a ladder
// time, a region (the whole extent, a tight ellipse rectangle, a random box
// or an empty one) and a refined set (none, boxes along the segment, an
// empty rectangle among them, one holding everything). Every answer,
// certified off the shared search or not, must be refUpperBound's bits and
// path.
func FuzzSharedUpperBound(f *testing.F) {
	f.Add(uint8(0), int64(1), []byte{0, 0, 0, 1, 1, 1, 2, 2, 4, 3, 3, 5, 4, 4, 9, 5, 0, 13})
	f.Add(uint8(1), int64(2), []byte{1, 2, 1, 6, 3, 0, 3, 4, 2, 7, 1, 17, 0, 0, 5})
	f.Add(uint8(2), int64(3), []byte{1, 0, 0, 1, 1, 0, 3, 2, 1, 5, 3, 4, 7, 4, 0, 1, 0, 9, 1, 1, 13})
	f.Add(uint8(3), int64(4), []byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3})
	fixtures := estimatorFixtures(f)
	f.Fuzz(func(t *testing.T, fix uint8, seed int64, ops []byte) {
		fx := fixtures[int(fix)%len(fixtures)]
		rng := rand.New(rand.NewSource(seed))
		ext := fx.m.Extent()
		inf := math.Inf(1)
		everything := geom.MBR{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
		times := fx.times()
		est := NewEstimator(fx.tr)
		a := facePoint(fx.m, mesh.FaceID(rng.Intn(fx.m.NumFaces())), rng)
		if seed%2 == 0 {
			a = vertexPoint(fx.m, rng)
		}
		if len(ops) > 3*64 {
			ops = ops[:3*64]
		}
		for i := 0; i+3 <= len(ops); i += 3 {
			op, tmSel, regSel := ops[i], ops[i+1], ops[i+2]
			tm := times[int(tmSel)%len(times)]
			b := facePoint(fx.m, mesh.FaceID(rng.Intn(fx.m.NumFaces())), rng)
			if op&1 == 1 {
				b = vertexPoint(fx.m, rng)
			}
			var region geom.MBR
			switch regSel % 4 {
			case 0:
				region = ext
			case 1: // ellipse rectangles from 1.0 to 2.0 times |ab|
				region = geom.NewEllipse(a.XY(), b.XY(), (1+float64(regSel>>2)/63)*a.Pos.Dist(b.Pos)).MBR()
			case 2:
				region = geom.EmptyMBR()
			case 3:
				c := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
				region = geom.MBR{MinX: c.X - ext.Width()*0.4, MinY: c.Y - ext.Height()*0.4, MaxX: c.X + ext.Width()*0.4, MaxY: c.Y + ext.Height()*0.4}
			}
			var refined []geom.MBR
			switch (op >> 1) % 4 {
			case 1:
				refined = pathBoxes(fx, a, b, 1+int(op>>3)%4, 0.05+float64(tmSel>>4)/100)
			case 2:
				refined = append(pathBoxes(fx, a, b, 2, 0.1), geom.EmptyMBR())
			case 3:
				refined = []geom.MBR{everything}
			}
			sameEstimate(t, "shared", est.UpperBound(fx.m, a, b, tm, region, refined), refUpperBound(fx, a, b, tm, region, refined))
		}
	})
}

// TestSharedSearchHistoryIndependent: an estimation — certified off the
// shared search or run restricted — gives the same bits and path whatever
// the estimator ran before (other targets, other levels, other sources) and
// after ForgetSource, and a warm certified call allocates nothing.
func TestSharedSearchHistoryIndependent(t *testing.T) {
	f := estimatorFixtures(t)[0]
	rng := rand.New(rand.NewSource(31))
	ext := f.m.Extent()
	ladder := f.times()
	tm := ladder[len(ladder)/2]
	a := facePoint(f.m, mesh.FaceID(rng.Intn(f.m.NumFaces())), rng)
	point := func() mesh.SurfacePoint { return facePoint(f.m, mesh.FaceID(rng.Intn(f.m.NumFaces())), rng) }

	// A target whose estimation a fresh estimator certifies.
	var b mesh.SurfacePoint
	for try := 0; ; try++ {
		if try == 100 {
			t.Fatal("no certified estimation among 100 targets")
		}
		b = point()
		fresh := NewEstimator(f.tr)
		if fresh.UpperBound(f.m, a, b, tm, ext, nil); fresh.Certified == 1 {
			break
		}
	}
	cases := []struct {
		name    string
		region  geom.MBR
		refined []geom.MBR
	}{
		{"whole extent", ext, nil},
		{"ellipse and refined boxes", geom.NewEllipse(a.XY(), b.XY(), 1.2*a.Pos.Dist(b.Pos)).MBR(), pathBoxes(f, a, b, 3, 0.06)},
	}
	others := make([]mesh.SurfacePoint, 16)
	for i := range others {
		others[i] = point()
	}
	est := NewEstimator(f.tr)
	for _, c := range cases {
		want := refUpperBound(f, a, b, tm, c.region, c.refined)
		if math.IsInf(want.UB, 1) {
			t.Fatalf("%s: no reference estimate", c.name)
		}
		check := func(after string) {
			t.Helper()
			sameEstimate(t, c.name+" after "+after, est.UpperBound(f.m, a, b, tm, c.region, c.refined), want)
		}
		check("nothing")
		for _, o := range others { // other targets, from near to far
			est.UpperBound(f.m, a, o, tm, ext, nil)
		}
		check("other targets")
		for _, l := range ladder { // other levels, other regions
			for _, o := range others[:4] {
				est.UpperBound(f.m, a, o, l, c.region, c.refined)
			}
		}
		check("other levels")
		for _, o := range others[:4] { // other sources reseed the level
			est.UpperBound(f.m, o, b, tm, ext, nil)
			est.UpperBound(f.m, o, a, tm, ext, nil)
		}
		check("other sources")
		est.ForgetSource()
		check("ForgetSource")
	}

	if raceEnabled {
		return // allocation counts are unreliable under -race
	}
	est.UpperBound(f.m, a, b, tm, ext, nil)
	cert := est.Certified
	if n := testing.AllocsPerRun(20, func() {
		est.UpperBound(f.m, a, b, tm, ext, nil)
	}); n != 0 {
		t.Fatalf("warm certified estimation allocates %.1f times, want 0", n)
	}
	if got := est.Certified - cert; got != 21 {
		t.Fatalf("%d of 21 warm estimations certified", got)
	}
}
