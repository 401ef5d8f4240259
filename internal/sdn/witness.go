package sdn

import (
	"math"

	"surfknn/internal/geom"
)

// witness returns the length of one chain through the layers collect laid
// out: one kept entry per layer, from a to b. The length is summed exactly
// as the DP sums — fl(pointDist(e₁, a)), then fl(acc + boxdist(eᵢ, eᵢ₊₁))
// with norm3 over the same RangeGap arguments in transition's order, then
// fl(acc + pointDist(eₘ, b)) — so by induction over the layers the DP's dist
// at each witness entry is at most the witness's partial sum there
// (fl(x + c) is monotone in x), and the DP's closing minimum is at most the
// witness length. Two conditions keep that exact: the witness visits
// exactly the DP's layers — collect's, every one of which keeps an entry —
// and only kept entries.
//
// Which entries it picks decides only how short it comes out, never its
// soundness. It is greedy: on each layer it takes the kept entry minimising
// the step from the previous pick plus the straight distance on to b — one
// box distance per kept entry, against the DP's window of sources per entry.
func (sc *Scratch) witness(useX bool, a, b geom.Vec3) float64 {
	var src *lineTable
	sk := -1 // previous pick
	acc := 0.0
	for i := range sc.layers {
		l := &sc.layers[i]
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
				sc.pairs++
			}
			if score := step + pointDist(t, k, useX, b); bestK < 0 || score < bestScore {
				bestK, bestStep, bestScore = k, step, score
			}
		}
		acc += bestStep
		src, sk = t, bestK
	}
	if src == nil {
		return 0
	}
	return acc + pointDist(src, sk, useX, b)
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
