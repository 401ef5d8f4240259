package sdn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/geom"
)

// TestRemainingTravelIsALowerBound checks the cut's bound entry by entry: on
// every kept entry of every layer, rem is at most the cheapest chain from the
// entry through the later layers to b, found by a backward all-pairs DP over
// the same layers. The kernel-vs-reference checks catch an unsound rem only
// when it flips a result; this catches it where it is computed. EP is the
// case where the z term carries the bound.
func TestRemainingTravelIsALowerBound(t *testing.T) {
	t.Parallel()
	for _, f := range kernelFixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(83))
			var sc Scratch
			// Entries where the free-axis or the z term is non-zero: without
			// them the test would check the plane-axis bound alone.
			freeTerms, zTerms := 0, 0
			for trial := 0; trial < 12; trial++ {
				a := randomPoint(rng, f.ext, f.name == "flat")
				b := randomPoint(rng, f.ext, f.name == "flat")
				if f.name != "flat" {
					a.Z, b.Z = rng.Float64()*200, rng.Float64()*200
				}
				regions := []geom.MBR{f.ext, geom.NewEllipse(a.XY(), b.XY(), a.Dist(b)*1.3).MBR()}
				for ri, region := range regions {
					for _, res := range testLadder {
						what := fmt.Sprintf("a=%v b=%v region#%d res=%v", a, b, ri, res)
						useX := prefersX(a, b)
						f.ms.collect(&sc, useX, a, b, region, res, planeStepFor(res), envelope{})
						togo := remainingChains(&sc, useX, b)
						bF := b.X
						if useX {
							bF = b.Y
						}
						for i := range sc.layers {
							l := &sc.layers[i]
							tab := l.tab
							for k := l.lo; k < l.hi; k++ {
								exact := togo[i][k-l.lo]
								if math.IsInf(exact, 1) {
									continue
								}
								gf := geom.RangeGap(tab.fLo[k], tab.fHi[k], bF, bF)
								gz := geom.RangeGap(tab.zLo[k], tab.zHi[k], b.Z, b.Z)
								if r := l.rem(gf, gz); r > exact {
									t.Fatalf("%s: layer %d entry %d: rem %v above the cheapest remaining chain %v", what, i, k, r, exact)
								}
								if ahead(gf, l.wF) > 0 {
									freeTerms++
								}
								if ahead(gz, l.wZ) > 0 {
									zTerms++
								}
							}
						}
					}
				}
			}
			if freeTerms == 0 || f.name != "flat" && zTerms == 0 {
				t.Fatalf("free-axis term non-zero on %d entries, z term on %d: the bound was not exercised", freeTerms, zTerms)
			}
		})
	}
}

// TestWitnessPickTies drives pick on hand-made layers where exact ties
// fall outside the run it scans in full: duplicate boxes on the outer sides
// (free-axis bounds only need to be non-decreasing), with and without a
// plane-axis gap — without one a score equals its free-axis gap sum, the
// bound the outward scans stop on. The exhaustive scan's first index must
// win every tie.
func TestWitnessPickTies(t *testing.T) {
	t.Parallel()
	// Free-axis intervals; a and b sit at free coordinate 4, between entries.
	fLo := []float64{0, 2, 2, 5, 5, 7}
	fHi := []float64{1, 3, 3, 6, 6, 8}
	for _, plane := range []float64{0, 1} {
		n := len(fLo)
		tab := &lineTable{fLo: fLo, fHi: fHi, pLo: make([]float64, n), pHi: make([]float64, n), zLo: make([]float64, n), zHi: make([]float64, n)}
		for k := range tab.pLo {
			tab.pLo[k], tab.pHi[k] = plane, plane
		}
		a, b := geom.Vec3{X: 4}, geom.Vec3{X: 4, Y: 2 * plane}
		for mask := 0; mask < 1<<n; mask++ {
			sc := Scratch{dist: make([]float64, n)}
			for k := range sc.dist {
				if mask&(1<<k) != 0 {
					sc.dist[k] = math.Inf(1)
				}
			}
			if mask == 1<<n-1 {
				continue // a layer keeps at least one entry
			}
			l := &layer{tab: tab, hi: n, masked: mask != 0}
			gotK, gotStep := sc.pick(l, nil, -1, false, a, b)
			wantK, wantStep := refPick(&sc, l, nil, -1, false, a, b)
			if gotK != wantK || math.Float64bits(gotStep) != math.Float64bits(wantStep) {
				t.Fatalf("plane %v mask %06b: pick entry %d (step %v), exhaustive scan entry %d (step %v)", plane, mask, gotK, gotStep, wantK, wantStep)
			}
		}
	}
}

// remainingChains is the backward all-pairs DP over the layers sc holds: for
// every kept entry, the cheapest chain from it through one kept entry of each
// later layer to b, summed as the forward DP sums a leg. Entries not kept
// get +Inf.
func remainingChains(sc *Scratch, useX bool, b geom.Vec3) [][]float64 {
	togo := make([][]float64, len(sc.layers))
	for i := len(sc.layers) - 1; i >= 0; i-- {
		l := &sc.layers[i]
		togo[i] = make([]float64, l.hi-l.lo)
		for k := l.lo; k < l.hi; k++ {
			best := math.Inf(1)
			switch {
			case math.IsInf(sc.dist[l.base+k-l.lo], 1):
			case i == len(sc.layers)-1:
				best = pointDist(l.tab, k, useX, b)
			default:
				n := &sc.layers[i+1]
				for j := n.lo; j < n.hi; j++ {
					best = math.Min(best, pairDist(l.tab, k, n.tab, j, useX)+togo[i+1][j-n.lo])
				}
			}
			togo[i][k-l.lo] = best
		}
	}
	return togo
}

// refWitness is the witness as first written, kept as the oracle of its
// outward scan: on each layer it scores every kept entry — the step from
// the previous pick plus pointDist on to b — and keeps the first index of
// the smallest score. It returns the witness length and, per layer, its
// pick and the step to it.
func refWitness(sc *Scratch, useX bool, a, b geom.Vec3) (float64, []int, []float64) {
	var src *lineTable
	sk := -1
	acc := 0.0
	var picks []int
	var steps []float64
	for i := range sc.layers {
		k, step := refPick(sc, &sc.layers[i], src, sk, useX, a, b)
		acc += step
		src, sk = sc.layers[i].tab, k
		picks, steps = append(picks, k), append(steps, step)
	}
	if src == nil {
		return 0, nil, nil
	}
	return acc + pointDist(src, sk, useX, b), picks, steps
}

// refPick is refWitness's choice on layer l after entry sk of src (after a
// when src is nil), and the step to it.
func refPick(sc *Scratch, l *layer, src *lineTable, sk int, useX bool, a, b geom.Vec3) (int, float64) {
	t := l.tab
	dist := sc.dist[l.base : l.base+l.hi-l.lo]
	bestK, bestStep, bestScore := -1, 0.0, math.Inf(1)
	for k := l.lo; k < l.hi; k++ {
		if math.IsInf(dist[k-l.lo], 1) {
			continue
		}
		var step float64
		if src == nil {
			step = pointDist(t, k, useX, a)
		} else {
			step = pairDist(src, sk, t, k, useX)
		}
		if score := step + pointDist(t, k, useX, b); bestK < 0 || score < bestScore {
			bestK, bestStep, bestScore = k, step, score
		}
	}
	return bestK, bestStep
}

// pairDist is the distance between entry j of s and entry p of t, evaluated
// exactly as transition evaluates it.
func pairDist(s *lineTable, j int, t *lineTable, p int, useX bool) float64 {
	return norm3(
		geom.RangeGap(s.fLo[j], s.fHi[j], t.fLo[p], t.fHi[p]),
		geom.RangeGap(s.pLo[j], s.pHi[j], t.pLo[p], t.pHi[p]),
		geom.RangeGap(s.zLo[j], s.zHi[j], t.zLo[p], t.zHi[p]),
		useX)
}
