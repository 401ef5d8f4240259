package sdn

import (
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geodesic"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

func rugged(size int, seed int64) *mesh.Mesh {
	return mesh.FromGrid(dem.Synthesize(dem.BH, size, 10, seed))
}

// ladderMSDN builds m's MSDN with the ladder's tables materialised, as
// assembly does.
func ladderMSDN(m *mesh.Mesh, spacing float64) *MSDN {
	ms := BuildMSDN(m, spacing)
	ms.Materialize(testLadder)
	return ms
}

func TestExtractCrossLineFlat(t *testing.T) {
	t.Parallel()
	m := mesh.FromGrid(dem.NewGrid(5, 5, 10)) // flat 40x40
	cl := extractCrossLine(m, YAxis, 15, 1)
	if len(cl.Pts) < 2 {
		t.Fatalf("too few points: %d", len(cl.Pts))
	}
	for i, p := range cl.Pts {
		if math.Abs(p.Y-15) > 1e-9 {
			t.Errorf("point %d not on plane: %v", i, p)
		}
		if p.Z != 0 {
			t.Errorf("flat terrain point has z=%v", p.Z)
		}
		if i > 0 && cl.Pts[i-1].X >= p.X {
			t.Errorf("points not ordered by x at %d", i)
		}
	}
	// Spans the full extent.
	if cl.Pts[0].X > 1e-9 || cl.Pts[len(cl.Pts)-1].X < 40-1e-9 {
		t.Errorf("line does not span extent: [%v, %v]", cl.Pts[0].X, cl.Pts[len(cl.Pts)-1].X)
	}
	// X-axis family too.
	clx := extractCrossLine(m, XAxis, 25, 1)
	for _, p := range clx.Pts {
		if math.Abs(p.X-25) > 1e-9 {
			t.Errorf("x-plane point off plane: %v", p)
		}
	}
}

func TestDPRanksNested(t *testing.T) {
	t.Parallel()
	m := rugged(8, 3)
	cl := extractCrossLine(m, YAxis, 35, 1)
	n := len(cl.Pts)
	if n < 4 {
		t.Skip("line too short")
	}
	if cl.Rank[0] != 0 || cl.Rank[n-1] != 1 {
		t.Errorf("endpoint ranks = %d, %d", cl.Rank[0], cl.Rank[n-1])
	}
	seen := make(map[int]bool)
	for _, r := range cl.Rank {
		if r < 0 || r >= n || seen[r] {
			t.Fatalf("ranks are not a permutation: %v", cl.Rank)
		}
		seen[r] = true
	}
	prev := map[int]bool{}
	for _, res := range []float64{0.25, 0.5, 0.75, 1.0} {
		idx := cl.Retained(res)
		cur := map[int]bool{}
		for _, i := range idx {
			cur[i] = true
		}
		for i := range prev {
			if !cur[i] {
				t.Fatalf("retention not nested at %v: lost %d", res, i)
			}
		}
		prev = cur
	}
	if got := len(cl.Retained(1.0)); got != n {
		t.Errorf("full retention = %d, want %d", got, n)
	}
}

func TestSegmentBoxesConservative(t *testing.T) {
	t.Parallel()
	m := rugged(8, 5)
	cl := extractCrossLine(m, YAxis, 40, 1)
	region := m.Extent()
	for _, res := range []float64{0.25, 0.5, 1.0} {
		for _, s := range cl.Segments(res, region) {
			// The segment box must contain every original point in span.
			for p := s.I; p <= s.J; p++ {
				sub := geom.Box3Of(cl.Pts[p])
				if !s.Box.ContainsBox(sub) {
					t.Fatalf("res %v: box %v misses point %v", res, s.Box, cl.Pts[p])
				}
			}
		}
	}
}

func TestBuildMSDN(t *testing.T) {
	t.Parallel()
	m := rugged(8, 7)
	ms := BuildMSDN(m, 0) // default spacing = average edge length
	if ms.NumLines() == 0 || ms.NumPoints() == 0 {
		t.Fatalf("empty MSDN: %d lines, %d points", ms.NumLines(), ms.NumPoints())
	}
	if ms.Spacing <= 0 {
		t.Errorf("spacing = %v", ms.Spacing)
	}
	// Lines are ordered by coordinate.
	for i := 1; i < len(ms.YLines); i++ {
		if ms.YLines[i-1].Coord >= ms.YLines[i].Coord {
			t.Fatal("y-lines out of order")
		}
	}
}

func TestLowerBoundFlat(t *testing.T) {
	t.Parallel()
	m := mesh.FromGrid(dem.NewGrid(9, 9, 10))
	ms := ladderMSDN(m, 10)
	a := geom.Vec3{X: 5, Y: 40, Z: 0}
	b := geom.Vec3{X: 75, Y: 42, Z: 0}
	est := ms.LowerBound(a, b, m.Extent(), 1.0)
	euclid := a.Dist(b)
	if est.LB < euclid-1e-9 {
		t.Errorf("lb %v below Euclidean %v", est.LB, euclid)
	}
	// On flat terrain the surface distance IS the Euclidean distance, so
	// the bound cannot exceed it either.
	if est.LB > euclid+1e-9 {
		t.Errorf("lb %v above flat surface distance %v", est.LB, euclid)
	}
}

func TestLowerBoundBelowExact(t *testing.T) {
	t.Parallel()
	m := rugged(8, 11)
	loc := mesh.NewLocator(m)
	solver := geodesic.NewSolver(m)
	ms := ladderMSDN(m, 0)
	ext := m.Extent()
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		pa := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		pb := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		a, err := mesh.MakeSurfacePoint(m, loc, pa)
		if err != nil {
			t.Fatal(err)
		}
		b, err := mesh.MakeSurfacePoint(m, loc, pb)
		if err != nil {
			t.Fatal(err)
		}
		exact := solver.Distance(a, b)
		for _, res := range []float64{0.25, 0.5, 1.0} {
			est := ms.LowerBound(a.Pos, b.Pos, ext, res)
			if est.LB > exact+1e-6 {
				t.Fatalf("res %v: lb %v exceeds exact %v", res, est.LB, exact)
			}
			if est.LB < a.Pos.Dist(b.Pos)-1e-9 {
				t.Fatalf("res %v: lb %v below Euclidean", res, est.LB)
			}
		}
	}
}

func TestLowerBoundMonotoneNested(t *testing.T) {
	t.Parallel()
	m := rugged(8, 17)
	ms := ladderMSDN(m, 0)
	ext := m.Extent()
	loc := mesh.NewLocator(m)
	rng := rand.New(rand.NewSource(19))
	// Fixed plane set (step 1): the bound is monotone in point resolution.
	ladder := []float64{0.25, 0.375, 0.5, 0.75, 1.0}
	for trial := 0; trial < 10; trial++ {
		pa := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		pb := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		a, errA := mesh.MakeSurfacePoint(m, loc, pa)
		b, errB := mesh.MakeSurfacePoint(m, loc, pb)
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		prev := 0.0
		var sc Scratch
		for _, res := range ladder {
			est, _ := ms.chain(&sc, prefersX(a.Pos, b.Pos), a.Pos, b.Pos, ext, res, 1, envelope{}, math.Inf(1))
			if est.LB < prev-1e-9 {
				t.Fatalf("lb not monotone at res %v: %v < %v", res, est.LB, prev)
			}
			prev = est.LB
		}
	}
}

func TestLowerBoundEnvelope(t *testing.T) {
	t.Parallel()
	m := rugged(8, 23)
	ms := ladderMSDN(m, 0)
	ext := m.Extent()
	loc := mesh.NewLocator(m)
	ap, errA := mesh.MakeSurfacePoint(m, loc, geom.Vec2{X: ext.MinX + 5, Y: ext.MinY + 8})
	bp, errB := mesh.MakeSurfacePoint(m, loc, geom.Vec2{X: ext.MaxX - 6, Y: ext.MaxY - 9})
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	a, b := ap.Pos, bp.Pos
	full := ms.LowerBound(a, b, ext, 0.5)
	if len(full.Path) == 0 {
		t.Fatal("expected a path")
	}
	prev := append([]Segment(nil), full.Path...)
	var sc Scratch
	// The envelope bound is at least the full bound, so it exceeds any
	// threshold the full bound exceeds.
	if !ms.EnvelopeExceeds(&sc, a, b, ext, 0.5, prev, ms.Spacing, 0, full.LB-1e-9) {
		t.Errorf("envelope bound does not exceed %v, just under the full bound", full.LB-1e-9)
	}
	// The floor alone decides, whatever the chains would say.
	if !ms.EnvelopeExceeds(&sc, a, b, ext, 0.5, prev, ms.Spacing, 1, 0.5) {
		t.Error("floor above the threshold did not decide")
	}
	if ms.EnvelopeExceeds(&sc, a, b, ext, 0.5, prev, ms.Spacing, 0, math.Inf(1)) {
		t.Error("envelope bound exceeds +Inf")
	}
	env, _ := ms.chain(&sc, prefersX(a, b), a, b, ext, 0.5, planeStepFor(0.5), envelope{prev, ms.Spacing, false}, math.Inf(1))
	if env.Segments > full.Segments {
		t.Errorf("envelope examined more segments (%d) than full (%d)", env.Segments, full.Segments)
	}
	// Empty previous path falls back to the full computation.
	if ms.EnvelopeExceeds(&sc, a, b, ext, 0.5, nil, ms.Spacing, 0, full.LB) ||
		!ms.EnvelopeExceeds(&sc, a, b, ext, 0.5, nil, ms.Spacing, 0, math.Nextafter(full.LB, 0)) {
		t.Errorf("with no previous path the decision is not the full bound's (%v)", full.LB)
	}
}

func TestLowerBoundNoPlanesBetween(t *testing.T) {
	t.Parallel()
	m := rugged(8, 29)
	ms := ladderMSDN(m, 0)
	a := geom.Vec3{X: 10, Y: 10, Z: 5}
	b := geom.Vec3{X: 10.5, Y: 10.2, Z: 5}
	est := ms.LowerBound(a, b, m.Extent(), 1.0)
	if math.Abs(est.LB-a.Dist(b)) > 1e-9 {
		t.Errorf("close points lb = %v, want Euclidean %v", est.LB, a.Dist(b))
	}
}

func TestPlaneStep(t *testing.T) {
	t.Parallel()
	cases := map[float64]int{1.0: 1, 0.75: 1, 0.5: 2, 0.375: 3, 0.25: 4}
	for res, want := range cases {
		if got := planeStepFor(res); got != want {
			t.Errorf("planeStepFor(%v) = %d, want %d", res, got, want)
		}
	}
}

func TestFamilyChoice(t *testing.T) {
	t.Parallel()
	// Mostly-horizontal pair → XAxis planes (perpendicular to travel).
	if !prefersX(geom.Vec3{X: 0, Y: 40}, geom.Vec3{X: 80, Y: 42}) {
		t.Error("horizontal travel should use x-planes")
	}
	if prefersX(geom.Vec3{X: 40, Y: 0}, geom.Vec3{X: 42, Y: 80}) {
		t.Error("vertical travel should use y-planes")
	}
}

func TestValidate(t *testing.T) {
	t.Parallel()
	build := func() *MSDN { return BuildMSDN(rugged(8, 7), 0) }
	if err := build().Validate(); err != nil {
		t.Fatalf("built MSDN fails validation: %v", err)
	}
	for name, corrupt := range map[string]func(ms *MSDN){
		"short line":      func(ms *MSDN) { ms.XLines[0].Pts, ms.XLines[0].Rank = ms.XLines[0].Pts[:1], ms.XLines[0].Rank[:1] },
		"rank count":      func(ms *MSDN) { ms.YLines[0].Rank = ms.YLines[0].Rank[1:] },
		"duplicate rank":  func(ms *MSDN) { ms.XLines[1].Rank[2] = ms.XLines[1].Rank[3] },
		"rank range":      func(ms *MSDN) { ms.XLines[1].Rank[2] = len(ms.XLines[1].Rank) },
		"endpoint rank":   func(ms *MSDN) { r := ms.YLines[1].Rank; r[0], r[2] = r[2], r[0] },
		"unsorted points": func(ms *MSDN) { p := ms.XLines[2].Pts; p[3], p[4] = p[4], p[3] },
		"NaN point":       func(ms *MSDN) { ms.YLines[2].Pts[1].Z = math.NaN() },
		"infinite point":  func(ms *MSDN) { ms.YLines[2].Pts[1].Z = math.Inf(1) },
		"line order":      func(ms *MSDN) { ms.XLines[0], ms.XLines[1] = ms.XLines[1], ms.XLines[0] },
		"wrong family":    func(ms *MSDN) { ms.XLines[0].Axis = YAxis },
		"NaN coord":       func(ms *MSDN) { ms.YLines[0].Coord = math.NaN() },
	} {
		ms := build()
		corrupt(ms)
		if err := ms.Validate(); err == nil {
			t.Errorf("%s: validation passed", name)
		}
	}
}
