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
// the step from the previous pick plus the straight distance on to b, the
// first index on ties (see pick).
func (sc *Scratch) witness(useX bool, a, b geom.Vec3) float64 {
	var src *lineTable
	sk := -1 // previous pick
	acc := 0.0
	for i := range sc.layers {
		k, step := sc.pick(&sc.layers[i], src, sk, useX, a, b)
		acc += step
		src, sk = sc.layers[i].tab, k
	}
	if src == nil {
		return 0
	}
	return acc + pointDist(src, sk, useX, b)
}

// pick returns the witness's entry on layer l after entry sk of src (after
// a when src is nil) and the step to it: of the kept entries, the first
// index minimising score = step + pointDist(k, b).
//
// It scans outward rather than scoring every entry. The run of entries whose
// free-axis interval meets the span from the previous pick's free-axis
// interval to b's free coordinate is scanned in full. Beyond either end of
// it both free-axis gaps — previous pick to k, k to b — only grow going
// outward (the bounds are monotone along the line), and a score is at least
// fl(gap + gap): norm3 is at least any one of its gaps and fl(+) is
// monotone. So an entry whose gap sum exceeds the best score cannot be
// picked, and on the two outer sides neither can any entry beyond it: the
// scan stops there. Every entry that attains the minimum is scored, and the
// (score, index) order picks the same first index a scan in index order
// does.
func (sc *Scratch) pick(l *layer, src *lineTable, sk int, useX bool, a, b geom.Vec3) (int, float64) {
	w := witnessScan{t: l.tab, useX: useX, best: -1, score: math.Inf(1)}
	w.bF, w.bP = b.X, b.Y
	if useX {
		w.bF, w.bP = b.Y, b.X
	}
	w.bZ = b.Z
	// The previous pick's box: a as a point, or entry sk of src. RangeGap is
	// symmetric for non-empty intervals, so the step has the bits of
	// pointDist from a, or of transition's box distance.
	if src == nil {
		w.sfLo, w.spLo, w.szLo = a.X, a.Y, a.Z
		if useX {
			w.sfLo, w.spLo = a.Y, a.X
		}
		w.sfHi, w.spHi, w.szHi = w.sfLo, w.spLo, w.szLo
	} else {
		w.sfLo, w.sfHi = src.fLo[sk], src.fHi[sk]
		w.spLo, w.spHi = src.pLo[sk], src.pHi[sk]
		w.szLo, w.szHi = src.zLo[sk], src.zHi[sk]
	}
	dist := sc.dist[l.base : l.base+l.hi-l.lo]
	lo, hi := l.tab.run(l.lo, l.hi, math.Min(w.sfLo, w.bF), math.Max(w.sfHi, w.bF))
	for k := lo; k < hi; k++ {
		w.offer(k, dist[k-l.lo])
	}
	for k := lo - 1; k >= l.lo && w.offer(k, dist[k-l.lo]); k-- {
	}
	for k := hi; k < l.hi && w.offer(k, dist[k-l.lo]); k++ {
	}
	if src != nil {
		sc.pairs += int64(w.pairs)
	}
	return w.best, w.step
}

// witnessScan is one layer's witness pick in progress: the previous pick's
// box (s…), b's coordinates in the family's axes, and the best entry so far.
type witnessScan struct {
	t                                  *lineTable
	useX                               bool
	sfLo, sfHi, spLo, spHi, szLo, szHi float64
	bF, bP, bZ                         float64
	best                               int // -1 before the first kept entry
	step, score                        float64
	pairs                              int
}

// offer scores entry k, whose arena dist is d (+Inf when not kept), and
// reports whether its free-axis gap sum is within the best score — false
// marks the entry where an outward scan may stop.
func (w *witnessScan) offer(k int, d float64) bool {
	t := w.t
	gs := geom.RangeGap(w.sfLo, w.sfHi, t.fLo[k], t.fHi[k])
	gb := geom.RangeGap(t.fLo[k], t.fHi[k], w.bF, w.bF)
	if gs+gb > w.score {
		return false
	}
	if math.IsInf(d, 1) {
		return true
	}
	step := norm3(gs,
		geom.RangeGap(w.spLo, w.spHi, t.pLo[k], t.pHi[k]),
		geom.RangeGap(w.szLo, w.szHi, t.zLo[k], t.zHi[k]),
		w.useX)
	score := step + norm3(gb,
		geom.RangeGap(t.pLo[k], t.pHi[k], w.bP, w.bP),
		geom.RangeGap(t.zLo[k], t.zHi[k], w.bZ, w.bZ),
		w.useX)
	w.pairs++
	//lint:ignore float-eq an exact tie goes to the lower index, as in a scan in index order
	if w.best < 0 || score < w.score || score == w.score && k < w.best {
		w.best, w.step, w.score = k, step, score
	}
	return true
}

// straight returns the length of the Line tier's chain (see EnvelopeExceeds)
// through the layers collect would lay out for env, without laying them
// out: on each of frame's lines whose region run keeps an entry, the kept
// entry nearest on the free axis to where the planar segment a→b crosses
// the line, the lower index on a tie. The length is summed as witness sums
// it, and is 0 when no line keeps an entry (the DP's value is then |ab|).
//
// The nearest entry is found by scanning outward from the crossing: the
// free-axis gap to it only grows going outward (the bounds are monotone
// along the line), so the two sides merge in gap order and the first kept
// entry met is the nearest. Only the boxes of env that reach the line's
// plane-axis extent can keep one of its entries; the others are left out of
// the test up front, as mask leaves them out of its runs.
func (ms *MSDN) straight(sc *Scratch, useX bool, a, b geom.Vec3, region geom.MBR, resolution float64, step int, env envelope) float64 {
	f, laid := ms.frame(sc, useX, a, b, region, resolution, step)
	if !laid {
		return 0
	}
	boxes := sc.envelopeBoxes(env, useX)
	aF, bF := a.X, b.X
	if useX {
		aF, bF = a.Y, b.Y
	}
	var src *lineTable
	sk := -1 // previous pick
	acc := 0.0
	for _, li := range sc.between {
		cl, t := f.lines[li], &f.tabs[li]
		lo, hi := t.run(0, t.len(), f.minF, f.maxF)
		if lo == hi {
			continue
		}
		near := sc.near[:0]
		for _, e := range boxes {
			if _, _, eMinP, eMaxP := cl.Axis.freePlane(e); !e.IsEmpty() && eMinP <= t.pMax && t.pMin <= eMaxP {
				near = append(near, e)
			}
		}
		sc.near = near
		if len(boxes) > 0 && len(near) == 0 {
			continue // no box reaches the line: mask keeps nothing
		}
		// With no envelope near is empty too, and keeps tests the band alone.
		cross := aF + (cl.Coord-f.aPlane)/(f.bPlane-f.aPlane)*(bF-aF)
		k := t.nearestKept(lo, hi, cross, cl.Axis, near, f.minP, f.maxP)
		if k < 0 {
			continue
		}
		if src == nil {
			acc = pointDist(t, k, useX, a)
		} else {
			acc += norm3(
				geom.RangeGap(src.fLo[sk], src.fHi[sk], t.fLo[k], t.fHi[k]),
				geom.RangeGap(src.pLo[sk], src.pHi[sk], t.pLo[k], t.pHi[k]),
				geom.RangeGap(src.zLo[sk], src.zHi[sk], t.zLo[k], t.zHi[k]),
				useX)
			sc.pairs++
		}
		src, sk = t, k
	}
	if src == nil {
		return 0
	}
	return acc + pointDist(src, sk, useX, b)
}

// nearestKept returns the entry of [lo, hi) that keeps holds for and whose
// free-axis interval is nearest to cross, the lower index on a tie; -1 when
// none is kept.
func (t *lineTable) nearestKept(lo, hi int, cross float64, axis Axis, env []geom.MBR, minP, maxP float64) int {
	r, _ := t.run(lo, hi, cross, cross) // first entry reaching cross
	l := r - 1
	for l >= lo || r < hi {
		gl, gr := math.Inf(1), math.Inf(1)
		if l >= lo {
			gl = geom.RangeGap(t.fLo[l], t.fHi[l], cross, cross)
		}
		if r < hi {
			gr = geom.RangeGap(t.fLo[r], t.fHi[r], cross, cross)
		}
		if l >= lo && gl <= gr {
			if t.keeps(l, axis, env, minP, maxP) {
				return l
			}
			l--
			continue
		}
		if t.keeps(r, axis, env, minP, maxP) {
			return r
		}
		r++
	}
	return -1
}
