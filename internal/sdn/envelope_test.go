package sdn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/geom"
)

// ladderTransitions lists every (previous, current) SDN resolution pair the
// schedules step through: S1 walks the ladder, S2 and S3 jump.
var ladderTransitions = [][2]float64{
	{0.25, 0.375}, {0.375, 0.5}, {0.5, 0.75}, {0.75, 1.0}, // S1
	{0.25, 0.5}, {0.5, 1.0}, // S2
	{0.25, 1.0}, // S3
}

// envelopeChains runs the narrow and the wide envelope chain as
// EnvelopeExceeds does.
func envelopeChains(ms *MSDN, sc *Scratch, a, b geom.Vec3, region geom.MBR, res float64, prev []Segment, margin float64) (narrow LowerEstimate, certified bool, wide LowerEstimate) {
	useX, step := prefersX(a, b), planeStepFor(res)
	narrow, certified = ms.chain(sc, useX, a, b, region, res, step, envelope{prev, margin, true}, math.Inf(1))
	narrow.Path = nil // aliases sc; the wide run overwrites it
	wide, _ = ms.chain(sc, useX, a, b, region, res, step, envelope{prev, margin, false}, math.Inf(1))
	return narrow, certified, wide
}

// sameDecision sweeps thresholds across [0.5, 1.5]·wide — and onto the wide
// and narrow values and one ulp to either side, where a decision flips — for
// a floor below, inside and above the sweep, and requires EnvelopeExceeds to
// answer what the wide envelope's value answers.
func sameDecision(t *testing.T, what string, ms *MSDN, sc *Scratch, a, b geom.Vec3, region geom.MBR, res float64, prev []Segment, margin float64, narrow, wide float64) {
	t.Helper()
	thresholds := []float64{math.Inf(1), 0}
	for _, v := range []float64{wide, narrow} {
		thresholds = append(thresholds, math.Nextafter(v, 0), v, math.Nextafter(v, math.Inf(1)))
	}
	for i := 0; i <= 20; i++ {
		thresholds = append(thresholds, wide*(0.5+float64(i)/20))
	}
	for _, floor := range []float64{0, a.Dist(b), wide * 0.9, wide * 1.1} {
		for _, thr := range thresholds {
			want := !(math.Max(floor, wide) <= thr)
			if got := ms.EnvelopeExceeds(sc, a, b, region, res, prev, margin, floor, thr); got != want {
				t.Fatalf("%s floor %v threshold %v: EnvelopeExceeds = %v, wide envelope %v (narrow %v) decides %v",
					what, floor, thr, got, wide, narrow, want)
			}
		}
	}
}

// TestEnvelopeCertificate is the exactness argument of EnvelopeExceeds as a
// property: over every ladder transition, with prev the full bound's path
// one level down, the narrow envelope's value is at least the wide one's
// whenever the certificate holds, and the decision is always the wide
// value's.
func TestEnvelopeCertificate(t *testing.T) {
	t.Parallel()
	for _, f := range kernelFixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(97))
			var sc Scratch
			pairs := 12
			if testing.Short() {
				pairs = 4
			}
			margin := 2 * f.ms.Spacing
			certifiedN, abandonedN, strictN := 0, 0, 0
			for trial := 0; trial < pairs; trial++ {
				flat := f.name == "flat"
				a, b := randomPoint(rng, f.ext, flat), randomPoint(rng, f.ext, flat)
				if trial%3 == 2 {
					// On the sample grid, where distances tie.
					a.X, a.Y = math.Round(a.X/10)*10, math.Round(a.Y/10)*10
					b.X, b.Y = math.Round(b.X/10)*10, math.Round(b.Y/10)*10
				}
				// The search ellipse of a loose and of a tight upper bound, and
				// the whole terrain (no upper bound yet).
				regions := []geom.MBR{
					f.ext,
					geom.NewEllipse(a.XY(), b.XY(), a.Dist(b)*(1.3+rng.Float64())).MBR(),
					geom.NewEllipse(a.XY(), b.XY(), a.Dist(b)*1.02).MBR(),
				}
				for ri, region := range regions {
					for _, tr := range ladderTransitions {
						// As in MR3 the previous bound saw an earlier, no smaller
						// region.
						prev := append([]Segment(nil), f.ms.LowerBoundScratch(&sc, a, b, regions[ri/2], tr[0], math.Inf(1)).Path...)
						what := fmt.Sprintf("%s a=%v b=%v region#%d %v->%v", f.name, a, b, ri, tr[0], tr[1])
						narrow, certified, wide := envelopeChains(f.ms, &sc, a, b, region, tr[1], prev, margin)
						if certified {
							certifiedN++
							if math.Float64bits(narrow.LB) < math.Float64bits(wide.LB) {
								t.Fatalf("%s: narrow envelope %v (%#x) below wide %v (%#x)", what,
									narrow.LB, math.Float64bits(narrow.LB), wide.LB, math.Float64bits(wide.LB))
							}
							if narrow.LB > wide.LB {
								strictN++
							}
							if narrow.Segments > wide.Segments {
								t.Fatalf("%s: narrow envelope kept %d segments, wide %d", what, narrow.Segments, wide.Segments)
							}
						} else {
							abandonedN++
						}
						sameDecision(t, what, f.ms, &sc, a, b, region, tr[1], prev, margin, narrow.LB, wide.LB)
					}
				}
			}
			t.Logf("%d certified (%d with narrow > wide), %d abandoned", certifiedN, strictN, abandonedN)
			if certifiedN == 0 {
				t.Fatal("no transition was certified: the narrow chain is never used")
			}
		})
	}
}

// TestEnvelopeCertificateAbandoned constructs the case the certificate must
// give up on: a previous path whose boxes sit just outside the region along
// the free axis. Thickened on both axes they reach back into the region and
// the wide envelope keeps entries on the lines around them; thickened on the
// plane axis only they reach none, every such layer is empty under the narrow
// boxes, and a narrow chain that skipped those layers would be a bound over
// fewer planes than the wide one crosses.
func TestEnvelopeCertificateAbandoned(t *testing.T) {
	t.Parallel()
	for _, f := range kernelFixtures() {
		ms, ext := f.ms, f.ext
		margin := 2 * ms.Spacing
		midY := (ext.MinY + ext.MaxY) / 2
		a := geom.Vec3{X: ext.MinX + 5, Y: midY - 20}
		b := geom.Vec3{X: ext.MaxX - 5, Y: midY - 25}
		if !prefersX(a, b) {
			t.Fatal("the pair should chain over the x-planes")
		}
		// Free axis is y: the region stops at midY, the path runs margin/2
		// beyond it.
		region := geom.MBR{MinX: ext.MinX, MinY: ext.MinY, MaxX: ext.MaxX, MaxY: midY}
		var prev []Segment
		for _, cl := range ms.XLines {
			y := midY + margin/2
			prev = append(prev, Segment{Line: cl, Box: geom.Box3{
				Min: geom.Vec3{X: cl.Coord, Y: y},
				Max: geom.Vec3{X: cl.Coord, Y: y + 1},
			}})
		}
		var sc Scratch
		for _, res := range testLadder {
			what := fmt.Sprintf("%s res %v", f.name, res)
			narrow, certified, wide := envelopeChains(ms, &sc, a, b, region, res, prev, margin)
			if certified {
				t.Fatalf("%s: certificate held (narrow %v over %d segments, wide %v over %d)", what,
					narrow.LB, narrow.Segments, wide.LB, wide.Segments)
			}
			if wide.Segments == 0 {
				t.Fatalf("%s: the wide envelope keeps nothing either", what)
			}
			sameDecision(t, what, ms, &sc, a, b, region, res, prev, margin, wide.LB, wide.LB)
		}

		// A short previous path — only its first box — leaves the far layers
		// empty under both envelopes: both chains skip them, the certificate
		// stands, and the decision is still the wide value's.
		full := append([]Segment(nil), ms.LowerBoundScratch(&sc, a, b, ext, 0.25, math.Inf(1)).Path...)
		narrow, certified, wide := envelopeChains(ms, &sc, a, b, ext, 0.5, full[:1], margin)
		if !certified || narrow.LB < wide.LB {
			t.Fatalf("%s short path: certified %v, narrow %v, wide %v", f.name, certified, narrow.LB, wide.LB)
		}
		sameDecision(t, f.name+" short path", ms, &sc, a, b, ext, 0.5, full[:1], margin, narrow.LB, wide.LB)
	}
}

// TestWarmEnvelopeDecisionAllocatesNothing pins the zero-alloc warm path of
// the decision in each of its three exits.
func TestWarmEnvelopeDecisionAllocatesNothing(t *testing.T) {
	f := kernelFixtures()[0]
	a := geom.Vec3{X: f.ext.MinX + 7, Y: f.ext.MinY + 11, Z: 3}
	b := geom.Vec3{X: f.ext.MaxX - 5, Y: f.ext.MaxY - 9, Z: 8}
	var sc Scratch
	margin := 2 * f.ms.Spacing
	for _, tr := range ladderTransitions {
		prev := append([]Segment(nil), f.ms.LowerBoundScratch(&sc, a, b, f.ext, tr[0], math.Inf(1)).Path...)
		_, _, wide := envelopeChains(f.ms, &sc, a, b, f.ext, tr[1], prev, margin)
		if n := testing.AllocsPerRun(20, func() {
			f.ms.EnvelopeExceeds(&sc, a, b, f.ext, tr[1], prev, margin, 2*wide.LB, wide.LB) // floor
			f.ms.EnvelopeExceeds(&sc, a, b, f.ext, tr[1], prev, margin, 0, 2*wide.LB)       // narrow certifies
			f.ms.EnvelopeExceeds(&sc, a, b, f.ext, tr[1], prev, margin, 0, wide.LB/2)       // wide decides
		}); n != 0 {
			t.Errorf("%v->%v: warm envelope decision allocates %v times per run", tr[0], tr[1], n)
		}
	}
}
