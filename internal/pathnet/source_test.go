package pathnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

// sourceFixture is one terrain with its pathnet and locator, built once.
type sourceFixture struct {
	m   *mesh.Mesh
	loc *mesh.Locator
	p   *Pathnet
}

var (
	sourceOnce     sync.Once
	sourceFixtures []sourceFixture
)

// getSourceFixtures returns a rugged, a smooth and a flat terrain. On the
// flat one many pairs realise the straight line exactly, which is where a
// clipped search's rectangle has no slack.
func getSourceFixtures() []sourceFixture {
	sourceOnce.Do(func() {
		for _, m := range []*mesh.Mesh{
			mesh.FromGrid(dem.Synthesize(dem.BH, 16, 10, 2006)),
			mesh.FromGrid(dem.Synthesize(dem.EP, 16, 10, 2006)),
			flatMesh(12),
		} {
			sourceFixtures = append(sourceFixtures, sourceFixture{m: m, loc: mesh.NewLocator(m), p: Build(m, 1)})
		}
	})
	return sourceFixtures
}

// randomSurfacePoint draws a point of the terrain; one draw in four snaps to
// a grid vertex, so sources and targets also sit on facet corners.
func (f *sourceFixture) randomSurfacePoint(rng *rand.Rand) mesh.SurfacePoint {
	ext := f.m.Extent()
	for {
		p := geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}
		if rng.Intn(4) == 0 {
			p = geom.Vec2{X: math.Round(p.X/10) * 10, Y: math.Round(p.Y/10) * 10}
		}
		if sp, err := mesh.MakeSurfacePoint(f.m, f.loc, p); err == nil {
			return sp
		}
	}
}

// checkSharedSource serves a target sequence from one shared-source search
// and holds every answer to the per-target searches it replaces: the same
// bits as the unrestricted DistanceValue, and — whenever the bound ub =
// factor·distance clears the caller's guard — the same bits as DistanceWithin
// over the bound's search ellipse rectangle. The sequence revisits targets,
// includes the source's own facet, and runs in the order given.
func checkSharedSource(t *testing.T, f *sourceFixture, seed int64, factor float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shared, single := f.p.NewQuerier(), f.p.NewQuerier()
	for round := 0; round < 2; round++ {
		a := f.randomSurfacePoint(rng)
		targets := make([]mesh.SurfacePoint, 0, 12)
		for i := 0; i < 8; i++ {
			targets = append(targets, f.randomSurfacePoint(rng))
		}
		targets = append(targets, targets[2], targets[0], a)
		targets = append(targets, mesh.SurfacePoint{Pos: f.m.Triangle(a.Face).Centroid(), Face: a.Face})
		for i, b := range targets {
			got := shared.FromSource(a, b, math.Inf(1))
			if want := single.DistanceValue(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d round %d target %d: FromSource %v, DistanceValue %v", seed, round, i, got, want)
			}
			ub := got * factor
			if !(got*(1+1e-9) < ub) {
				continue // the caller's guard keeps this pair on the clipped search
			}
			region := geom.NewEllipse(a.XY(), b.XY(), ub).MBR()
			if want := single.DistanceWithin(a, b, region); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d round %d target %d: FromSource %v, DistanceWithin(ub %v) %v", seed, round, i, got, ub, want)
			}
		}
	}
}

func TestSharedSourceMatchesPerTargetSearches(t *testing.T) {
	fixtures := getSourceFixtures()
	for fi := range fixtures {
		for seed := int64(1); seed <= 6; seed++ {
			for _, factor := range []float64{1, 1 + 2e-9, 1.0001, 1.05, 2} {
				checkSharedSource(t, &fixtures[fi], seed, factor)
			}
		}
	}
}

// FuzzSharedSourceMatchesClipped drives the same check from a fuzzed seed,
// bound factor (any factor >= 1 is a valid upper bound) and fixture.
//
//	go test ./internal/pathnet -run='^$' -fuzz=FuzzSharedSourceMatchesClipped -fuzztime=60s
func FuzzSharedSourceMatchesClipped(f *testing.F) {
	f.Add(int64(1), 1.0, uint8(0))
	f.Add(int64(2), 1.000000002, uint8(2))
	f.Add(int64(3), 1.01, uint8(1))
	f.Add(int64(4), 3.5, uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, factor float64, fixSel uint8) {
		if math.IsNaN(factor) || factor < 1 || factor > 1e6 {
			t.Skip("not an upper-bound factor")
		}
		fixtures := getSourceFixtures()
		checkSharedSource(t, &fixtures[int(fixSel)%len(fixtures)], seed, factor)
	})
}

// TestSharedSourceLifecycle: the shared search restarts when the source
// changes or is forgotten, keeps its work in between (a repeated target
// relaxes nothing), counts into Relaxations, and — serving many targets —
// relaxes fewer arcs than one search per target.
func TestSharedSourceLifecycle(t *testing.T) {
	f := &getSourceFixtures()[0]
	rng := rand.New(rand.NewSource(9))
	a := f.randomSurfacePoint(rng)
	targets := make([]mesh.SurfacePoint, 24)
	for i := range targets {
		targets[i] = f.randomSurfacePoint(rng)
	}
	shared, single := f.p.NewQuerier(), f.p.NewQuerier()
	for _, b := range targets {
		shared.FromSource(a, b, math.Inf(1))
		single.DistanceValue(a, b)
	}
	first := shared.Relaxations()
	if first == 0 {
		t.Fatal("the shared search counted no relaxations")
	}
	if first >= single.Relaxations() {
		t.Fatalf("shared search relaxed %d arcs, per-target searches %d", first, single.Relaxations())
	}
	for _, b := range targets {
		shared.FromSource(a, b, math.Inf(1))
	}
	if got := shared.Relaxations(); got != first {
		t.Fatalf("repeating every target relaxed %d more arcs", got-first)
	}
	shared.ForgetSource()
	for _, b := range targets {
		shared.FromSource(a, b, math.Inf(1))
	}
	if got := shared.Relaxations() - first; got != first {
		t.Fatalf("after ForgetSource the same targets relaxed %d arcs, first time %d", got, first)
	}
	// A new source must not read the old source's labels.
	b := targets[0]
	if got, want := shared.FromSource(b, a, math.Inf(1)), single.DistanceValue(b, a); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("after a source change: FromSource %v, DistanceValue %v", got, want)
	}
}

// TestWarmSharedSourceAllocatesNothing: with its frontier at the high-water
// mark, seeding and serving a target set allocates nothing.
func TestWarmSharedSourceAllocatesNothing(t *testing.T) {
	f := &getSourceFixtures()[0]
	rng := rand.New(rand.NewSource(10))
	a := f.randomSurfacePoint(rng)
	targets := make([]mesh.SurfacePoint, 16)
	for i := range targets {
		targets[i] = f.randomSurfacePoint(rng)
	}
	q := f.p.NewQuerier()
	serve := func() {
		q.ForgetSource()
		for _, b := range targets {
			q.FromSource(a, b, math.Inf(1))
		}
	}
	serve()
	if n := testing.AllocsPerRun(20, serve); n != 0 {
		t.Fatalf("warm shared-source search allocates %.1f times per target set, want 0", n)
	}
}

// checkCappedSource serves a target sequence from one shared-source search
// with a cap on every call — a fraction of the target's distance drawn from
// the seed, the distance itself or an ulp to either side — and holds each
// answer to the exact one: the same bits when the distance is at most the
// cap, and otherwise a value above the cap and at most the distance, after
// whatever capped or exact calls came before.
func checkCappedSource(t *testing.T, f *sourceFixture, seed int64, scale float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	shared, single := f.p.NewQuerier(), f.p.NewQuerier()
	a := f.randomSurfacePoint(rng)
	targets := make([]mesh.SurfacePoint, 0, 16)
	for i := 0; i < 12; i++ {
		targets = append(targets, f.randomSurfacePoint(rng))
	}
	targets = append(targets, targets[3], targets[0], a, targets[5])
	for i, b := range targets {
		want := single.DistanceValue(a, b)
		var limit float64
		switch rng.Intn(5) {
		case 0:
			limit = want
		case 1:
			limit = math.Nextafter(want, 0)
		case 2:
			limit = math.Nextafter(want, math.Inf(1))
		case 3:
			limit = math.Inf(1)
		default:
			limit = want * scale * rng.Float64() * 2
		}
		got := shared.FromSource(a, b, limit)
		if want <= limit {
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d target %d: FromSource(limit %v) %v, distance %v", seed, i, limit, got, want)
			}
			continue
		}
		if !(got > limit && got <= want) {
			t.Fatalf("seed %d target %d: FromSource(limit %v) %v, want a value in (limit, %v]", seed, i, limit, got, want)
		}
	}
}

func TestCappedSourceMatchesExact(t *testing.T) {
	fixtures := getSourceFixtures()
	for fi := range fixtures {
		for seed := int64(1); seed <= 6; seed++ {
			for _, scale := range []float64{0.25, 0.5, 1} {
				checkCappedSource(t, &fixtures[fi], seed, scale)
			}
		}
	}
}

// FuzzCappedSourceMatchesExact drives checkCappedSource from a fuzzed seed,
// cap scale and fixture.
//
//	go test ./internal/pathnet -run='^$' -fuzz=FuzzCappedSourceMatchesExact -fuzztime=60s
func FuzzCappedSourceMatchesExact(f *testing.F) {
	f.Add(int64(1), 0.5, uint8(0))
	f.Add(int64(2), 1.0, uint8(2))
	f.Add(int64(3), 0.05, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, scale float64, fixSel uint8) {
		if math.IsNaN(scale) || scale < 0 || scale > 1e6 {
			t.Skip("not a cap scale")
		}
		fixtures := getSourceFixtures()
		checkCappedSource(t, &fixtures[int(fixSel)%len(fixtures)], seed, scale)
	})
}
