package sdn

import (
	"math"
	"testing"

	"surfknn/internal/geom"
)

// FuzzEnvelopeDecision holds the bounds that are computed only as exactly
// as their decision needs to the exact values, on fuzzed point pairs,
// regions and ladder transitions of the kernel fixtures:
//
//   - EnvelopeExceeds answers what the wide envelope's exact value answers,
//     over sameDecision's sweep of floors and thresholds around it;
//   - the Line tier's straight-line chain (with its Euclidean floor) is
//     never below the wide envelope's value, which makes it a certificate;
//   - LowerBoundScratch under a limit returns the uncapped estimate — value,
//     segments and path, bit for bit — whenever that is at most the limit,
//     and a value above the limit with no path otherwise.
func FuzzEnvelopeDecision(f *testing.F) {
	f.Add(0.1, 0.2, 1.0, 0.9, 0.8, 20.0, 0.0, 0.0, 1.0, 1.0, uint8(2), uint8(0), uint8(0))
	f.Add(0.5, 0.05, 0.0, 0.5, 0.95, 0.0, 0.3, 0.0, 0.7, 1.0, uint8(4), uint8(2), uint8(1))
	f.Add(0.9, 0.9, 5.0, 0.1, 0.12, 9.0, 0.0, 0.4, 1.0, 0.6, uint8(0), uint8(1), uint8(2))
	f.Add(0.25, 0.5, 0.0, 0.75, 0.5, 0.0, 0.5, 0.5, 0.5, 0.5, uint8(5), uint8(2), uint8(3))
	f.Fuzz(func(t *testing.T, ax, ay, az, bx, by, bz, rx0, ry0, rx1, ry1 float64, trSel, fixSel, marginSel uint8) {
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
		r0, r1 := at(rx0, ry0, 0), at(rx1, ry1, 0)
		region := geom.MBR{MinX: r0.X, MinY: r0.Y, MaxX: r1.X, MaxY: r1.Y}
		tr := ladderTransitions[int(trSel)%len(ladderTransitions)]
		margin := []float64{0, 0.5, 2, 4}[int(marginSel)%4] * fx.ms.Spacing
		var sc Scratch

		// The envelope decision, with prev the full bound's path one level
		// down as MR3 passes it.
		prev := append([]Segment(nil), fx.ms.LowerBoundScratch(&sc, a, b, region, tr[0], math.Inf(1)).Path...)
		narrow, _, wide := envelopeChains(fx.ms, &sc, a, b, region, tr[1], prev, margin)
		line := fx.ms.straight(&sc, prefersX(a, b), a, b, region, tr[1], planeStepFor(tr[1]), envelope{path: prev, margin: margin})
		if got := math.Max(line, a.Dist(b)); got < wide.LB {
			t.Fatalf("straight-line chain %v (floored %v) below the wide envelope's value %v", line, got, wide.LB)
		}
		sameDecision(t, "fuzz", fx.ms, &sc, a, b, region, tr[1], prev, margin, narrow.LB, wide.LB)

		// The capped bound against the exact one.
		exact := fx.ms.LowerBoundScratch(&sc, a, b, region, tr[1], math.Inf(1))
		exact.Path = append([]Segment(nil), exact.Path...)
		v := exact.LB
		for _, limit := range []float64{0, v / 2, math.Nextafter(v, 0), v, math.Nextafter(v, math.Inf(1)), 1.5 * v, math.Inf(1)} {
			got := fx.ms.LowerBoundScratch(&sc, a, b, region, tr[1], limit)
			if v <= limit {
				sameEstimate(t, "capped", got, exact)
				continue
			}
			if !(got.LB > limit) || got.Path != nil {
				t.Fatalf("limit %v under the bound %v: capped LB %v, path of %d", limit, v, got.LB, len(got.Path))
			}
		}
	})
}
