package sdn

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

// testLadder mirrors core.SDNLadder (core imports this package).
var testLadder = []float64{0.25, 0.375, 0.5, 0.75, 1.0}

// sameEstimate fails the test unless got equals want bit for bit: the bound,
// the examined-segment count, and every path node's line, span and box.
func sameEstimate(t *testing.T, what string, got, want LowerEstimate) {
	t.Helper()
	if math.Float64bits(got.LB) != math.Float64bits(want.LB) {
		t.Fatalf("%s: LB %v (%#x), reference %v (%#x)", what, got.LB, math.Float64bits(got.LB), want.LB, math.Float64bits(want.LB))
	}
	if got.Segments != want.Segments {
		t.Fatalf("%s: Segments %d, reference %d", what, got.Segments, want.Segments)
	}
	if len(got.Path) != len(want.Path) {
		t.Fatalf("%s: path length %d, reference %d", what, len(got.Path), len(want.Path))
	}
	for i := range got.Path {
		g, w := got.Path[i], want.Path[i]
		if g.Line != w.Line || g.I != w.I || g.J != w.J || !sameBox(g.Box, w.Box) {
			t.Fatalf("%s: path[%d] = line %v span [%d,%d] box %v, reference line %v span [%d,%d] box %v",
				what, i, g.Line.Coord, g.I, g.J, g.Box, w.Line.Coord, w.I, w.J, w.Box)
		}
	}
}

func sameBox(a, b geom.Box3) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return eq(a.Min.X, b.Min.X) && eq(a.Min.Y, b.Min.Y) && eq(a.Min.Z, b.Min.Z) &&
		eq(a.Max.X, b.Max.X) && eq(a.Max.Y, b.Max.Y) && eq(a.Max.Z, b.Max.Z)
}

// kernelFixture is one terrain with an MSDN materialised at the ladder, as
// assembly serves it.
type kernelFixture struct {
	name string
	ext  geom.MBR
	ms   *MSDN
}

var (
	kernelFixturesOnce sync.Once
	kernelFixtureList  []kernelFixture
)

// kernelFixtures returns a rugged (BH), a smooth (EP) and a FLAT terrain. On
// the flat one every box has zero height and the layers are translates of
// each other, so transitions tie constantly and the first-index rule decides
// the argmin — the case pruning could most easily get wrong.
func kernelFixtures() []kernelFixture {
	kernelFixturesOnce.Do(func() {
		for _, f := range []struct {
			name string
			m    *mesh.Mesh
		}{
			{"BH", mesh.FromGrid(dem.Synthesize(dem.BH, 16, 10, 5))},
			{"EP", mesh.FromGrid(dem.Synthesize(dem.EP, 16, 10, 6))},
			{"flat", mesh.FromGrid(dem.NewGrid(17, 17, 10))},
		} {
			kernelFixtureList = append(kernelFixtureList, kernelFixture{f.name, f.m.Extent(), ladderMSDN(f.m, 0)})
		}
	})
	return kernelFixtureList
}

// checkPair compares kernel and reference for one pair and region at one
// resolution in both estimation modes (full and envelope), and the envelope
// decision with the decision the reference envelope's value gives. envPrev is
// the path the envelope run thickens (the previous level's reference path, as
// MR3 does); sc is reused across calls so stale scratch state would show.
func checkPair(t *testing.T, what string, ms *MSDN, sc *Scratch, a, b geom.Vec3, region geom.MBR, res float64, envPrev []Segment) LowerEstimate {
	t.Helper()
	want := refLowerBound(ms, a, b, region, res, nil, 0)
	sameEstimate(t, what+" full", ms.LowerBoundScratch(sc, a, b, region, res, math.Inf(1)), want)
	margin := 2 * ms.Spacing
	wantEnv := refLowerBound(ms, a, b, region, res, envPrev, margin)
	gotEnv, _ := ms.chain(sc, prefersX(a, b), a, b, region, res, planeStepFor(res), envelope{envPrev, margin, false}, math.Inf(1))
	sameEstimate(t, what+" envelope", gotEnv, wantEnv)
	// The threshold on the reference value and one ulp to either side: the
	// only places the narrow certificate could flip the decision.
	for _, thr := range []float64{math.Nextafter(wantEnv.LB, 0), wantEnv.LB, math.Nextafter(wantEnv.LB, math.Inf(1))} {
		if got := ms.EnvelopeExceeds(sc, a, b, region, res, envPrev, margin, 0, thr); got != (wantEnv.LB > thr) {
			t.Fatalf("%s: EnvelopeExceeds(threshold %v) = %v, reference envelope %v", what, thr, got, wantEnv.LB)
		}
	}

	// The witness tier: the wide witness bounds the envelope DP, and at the
	// witness length and one ulp to either side — where the tier is the one
	// to answer — the decision is still the reference envelope's, with and
	// without the Euclidean floor.
	useX, step := prefersX(a, b), planeStepFor(res)
	ms.collect(sc, useX, a, b, region, res, step, envelope{envPrev, margin, false})
	w := sameWitness(t, what+" envelope witness", sc, useX, a, b)
	if math.Max(w, a.Dist(b)) < wantEnv.LB {
		t.Fatalf("%s: witness %v (floor %v) below the envelope DP %v", what, w, a.Dist(b), wantEnv.LB)
	}
	for _, floor := range []float64{0, a.Dist(b)} {
		for _, thr := range []float64{math.Nextafter(w, 0), w, math.Nextafter(w, math.Inf(1))} {
			if got := ms.EnvelopeExceeds(sc, a, b, region, res, envPrev, margin, floor, thr); got != (math.Max(floor, wantEnv.LB) > thr) {
				t.Fatalf("%s: EnvelopeExceeds(floor %v, threshold %v at the witness %v) = %v, reference envelope %v",
					what, floor, thr, w, got, wantEnv.LB)
			}
		}
	}

	// The tightest cut the solve argument allows, at the reference value
	// itself, leaves the value and the path — the next level's envelope —
	// as they are.
	ms.collect(sc, useX, a, b, region, res, step, envelope{})
	sameWitness(t, what+" full witness", sc, useX, a, b)
	lb, bestK := sc.solve(useX, a, b, want.LB*(1+cutSlack))
	cut := LowerEstimate{LB: lb, Segments: want.Segments}
	if bestK >= 0 {
		cut.Path = sc.tracePath(bestK)
	}
	sameEstimate(t, what+" cut at the reference value", cut, want)
	return want
}

// sameWitness fails the test unless the witness over the layers sc holds is
// the exhaustive scan's (refWitness): the same pick on every layer, the
// same first index on ties, and the same length bits. It returns the length.
func sameWitness(t *testing.T, what string, sc *Scratch, useX bool, a, b geom.Vec3) float64 {
	t.Helper()
	want, picks, steps := refWitness(sc, useX, a, b)
	var src *lineTable
	sk := -1
	for i, k := range picks {
		l := &sc.layers[i]
		gotK, gotStep := sc.pick(l, src, sk, useX, a, b)
		if gotK != k || math.Float64bits(gotStep) != math.Float64bits(steps[i]) {
			t.Fatalf("%s: layer %d picks entry %d (step %v), exhaustive scan entry %d (step %v)", what, i, gotK, gotStep, k, steps[i])
		}
		src, sk = l.tab, k
	}
	got := sc.witness(useX, a, b)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: witness %v (%#x), exhaustive scan %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	return got
}

func randomPoint(rng *rand.Rand, ext geom.MBR, flat bool) geom.Vec3 {
	p := geom.Vec3{
		X: ext.MinX + rng.Float64()*ext.Width(),
		Y: ext.MinY + rng.Float64()*ext.Height(),
	}
	if !flat {
		p.Z = rng.Float64() * 30
	}
	return p
}

func TestChainKernelMatchesReference(t *testing.T) {
	t.Parallel()
	for _, f := range kernelFixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(71))
			var sc Scratch
			pairs := 25
			if testing.Short() {
				pairs = 6
			}
			for trial := 0; trial < pairs; trial++ {
				a := randomPoint(rng, f.ext, f.name == "flat")
				b := randomPoint(rng, f.ext, f.name == "flat")
				if trial%2 == 1 {
					// Snap to the sample grid: an endpoint on a shared segment
					// boundary is equidistant from both neighbours, and on the
					// flat terrain those ties then propagate down the chain.
					a.X, a.Y = math.Round(a.X/10)*10, math.Round(a.Y/10)*10
					b.X, b.Y = math.Round(b.X/10)*10, math.Round(b.Y/10)*10
				}
				regions := []geom.MBR{
					f.ext,
					geom.NewEllipse(a.XY(), b.XY(), a.Dist(b)*(1.02+rng.Float64())).MBR(),
					// An arbitrary window that need not contain a or b.
					geom.MBROf(randomPoint(rng, f.ext, true).XY(), randomPoint(rng, f.ext, true).XY()),
				}
				// A region edge landing exactly on a plane coordinate.
				if lines := f.ms.XLines; len(lines) > 2 {
					r := f.ext
					r.MinX = lines[1+rng.Intn(len(lines)-2)].Coord
					regions = append(regions, r)
				}
				for ri, region := range regions {
					var prevPath []Segment
					for _, res := range testLadder {
						what := fmt.Sprintf("%s a=%v b=%v region#%d res=%v", f.name, a, b, ri, res)
						full := checkPair(t, what, f.ms, &sc, a, b, region, res, prevPath)
						prevPath = append(prevPath[:0], full.Path...)
					}
				}
			}
		})
	}
}

// TestWitnessKeepsToTheEnvelope gives the envelope a detour: prev's boxes
// run along both far edges of the terrain, so the wide chain must climb to
// one of them and back, while the straight line between a and b — through
// the entries the envelope drops between the two edges, inside each
// layer's run — is far shorter. A witness built from any dropped entry
// would come out below the DP it must bound and certify a wrong "does not
// exceed".
func TestWitnessKeepsToTheEnvelope(t *testing.T) {
	t.Parallel()
	for _, f := range kernelFixtures() {
		ms, ext := f.ms, f.ext
		midY := (ext.MinY + ext.MaxY) / 2
		a := geom.Vec3{X: ext.MinX + 5, Y: midY}
		b := geom.Vec3{X: ext.MaxX - 5, Y: midY + 3}
		var prev []Segment
		for _, cl := range ms.XLines {
			for _, y := range []float64{ext.MinY + 19, ext.MaxY - 20} {
				prev = append(prev, Segment{Line: cl, Box: geom.Box3{
					Min: geom.Vec3{X: cl.Coord, Y: y},
					Max: geom.Vec3{X: cl.Coord, Y: y + 1},
				}})
			}
		}
		margin := ms.Spacing
		var sc Scratch
		for _, res := range testLadder {
			what := fmt.Sprintf("%s res %v", f.name, res)
			wide := refLowerBound(ms, a, b, ext, res, prev, margin)
			if wide.LB < 1.25*a.Dist(b) {
				t.Fatalf("%s: the detour envelope's bound %v is not a detour (|ab| %v)", what, wide.LB, a.Dist(b))
			}
			ms.collect(&sc, true, a, b, ext, res, planeStepFor(res), envelope{prev, margin, false})
			if w := sc.witness(true, a, b); w < wide.LB {
				t.Fatalf("%s: witness %v below the envelope DP %v", what, w, wide.LB)
			}
			thr := (a.Dist(b) + wide.LB) / 2
			if !ms.EnvelopeExceeds(&sc, a, b, ext, res, prev, margin, 0, thr) {
				t.Fatalf("%s: EnvelopeExceeds(threshold %v) = false, envelope bound %v", what, thr, wide.LB)
			}
		}
	}
}

// TestChainKernelPrunes pins that the pruning actually prunes: on a
// whole-terrain bound the kernel must fully evaluate far fewer pairs than
// the all-pairs product of consecutive layers.
func TestChainKernelPrunes(t *testing.T) {
	t.Parallel()
	f := kernelFixtures()[0]
	a := geom.Vec3{X: f.ext.MinX + 7, Y: f.ext.MinY + 11, Z: 3}
	b := geom.Vec3{X: f.ext.MaxX - 5, Y: f.ext.MaxY - 9, Z: 8}
	var sc Scratch
	f.ms.LowerBoundScratch(&sc, a, b, f.ext, 1.0, math.Inf(1))
	allPairs := int64(0)
	for i := 1; i < len(sc.layers); i++ {
		allPairs += int64(sc.layers[i-1].hi-sc.layers[i-1].lo) * int64(sc.layers[i].hi-sc.layers[i].lo)
	}
	if sc.Pairs() == 0 || sc.Pairs()*4 > allPairs {
		t.Fatalf("kernel evaluated %d of %d pairs; expected under a quarter", sc.Pairs(), allPairs)
	}
}

// TestWarmChainAllocatesNothing pins the zero-alloc warm path over the shared
// level tables.
func TestWarmChainAllocatesNothing(t *testing.T) {
	f := kernelFixtures()[0]
	a := geom.Vec3{X: f.ext.MinX + 7, Y: f.ext.MinY + 11, Z: 3}
	b := geom.Vec3{X: f.ext.MaxX - 5, Y: f.ext.MaxY - 9, Z: 8}
	var sc Scratch
	for _, res := range testLadder {
		full := f.ms.LowerBoundScratch(&sc, a, b, f.ext, res, math.Inf(1))
		prev := append([]Segment(nil), full.Path...)
		if n := testing.AllocsPerRun(20, func() {
			f.ms.LowerBoundScratch(&sc, a, b, f.ext, res, math.Inf(1))
			// Never exceeded: the narrow chain certifies. Always exceeded (past
			// floor): the narrow chain cannot, and the wide one runs too.
			f.ms.EnvelopeExceeds(&sc, a, b, f.ext, res, prev, 2*f.ms.Spacing, 0, math.Inf(1))
			f.ms.EnvelopeExceeds(&sc, a, b, f.ext, res, prev, 2*f.ms.Spacing, 0, 0)
		}); n != 0 {
			t.Errorf("res %v: warm lower bound allocates %v times per run", res, n)
		}
	}
}

// FuzzChainKernel drives the differential check from fuzzed endpoints,
// region and ladder resolution on all three fixtures.
//
//	go test ./internal/sdn -run='^$' -fuzz=FuzzChainKernel -fuzztime=60s
func FuzzChainKernel(f *testing.F) {
	f.Add(0.1, 0.2, 1.0, 0.9, 0.8, 20.0, 0.0, 0.0, 1.0, 1.0, uint8(2), uint8(0))
	f.Add(0.5, 0.05, 0.0, 0.5, 0.95, 0.0, 0.3, 0.0, 0.7, 1.0, uint8(4), uint8(2))
	f.Add(0.9, 0.9, 5.0, 0.1, 0.12, 9.0, 0.0, 0.4, 1.0, 0.6, uint8(0), uint8(1))
	f.Add(0.25, 0.5, 0.0, 0.75, 0.5, 0.0, 0.5, 0.5, 0.5, 0.5, uint8(5), uint8(2))
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz, rx0, ry0, rx1, ry1 float64, resSel, fixSel uint8) {
		for _, v := range []float64{ax, ay, az, bx, by, bz, rx0, ry0, rx1, ry1} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip("non-finite input")
			}
		}
		fixtures := kernelFixtures()
		fx := fixtures[int(fixSel)%len(fixtures)]
		at := func(u, v, z float64) geom.Vec3 {
			return geom.Vec3{X: fx.ext.MinX + u*fx.ext.Width(), Y: fx.ext.MinY + v*fx.ext.Height(), Z: z}
		}
		a, b := at(ax, ay, az), at(bx, by, bz)
		// The region is taken as given: inverted (empty) rectangles and ones
		// that miss the terrain are inputs too.
		r0, r1 := at(rx0, ry0, 0), at(rx1, ry1, 0)
		region := geom.MBR{MinX: r0.X, MinY: r0.Y, MaxX: r1.X, MaxY: r1.Y}
		res := testLadder[int(resSel)%len(testLadder)]
		var sc Scratch
		coarse := refLowerBound(fx.ms, a, b, region, testLadder[0], nil, 0)
		checkPair(t, "fuzz", fx.ms, &sc, a, b, region, res, coarse.Path)
	})
}
