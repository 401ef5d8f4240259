package sdn

import (
	"math"

	"surfknn/internal/geom"
)

// The chain kernel: the two inner loops of the lower-bound DP, written over
// the flat table arrays. Its results are bit-identical to the plain
// all-pairs DP (min over every source of dist + box distance, first index
// on ties; kept as the test reference in reference_test.go) because pruning
// only ever discards a source that provably cannot reach the minimum:
//
//   - Every value compared against the bound is a floating-point LOWER bound
//     of the pair's full value dist[j] + sqrt(gx²+gy²+gz²): dropping
//     non-negative terms under the root and rounding are both monotone, and
//     sqrt(g·g) == g exactly in binary floating point, so
//     fl(dist[j] + g) <= fl(dist[j] + sqrt(g² + …)) for any single axis gap g
//     (squares of gaps below 1e-154 would underflow; coordinate differences
//     are never that small without being zero).
//   - The bound starts at a value some source actually attains, or at the
//     cut's limit when that is lower, so the minimum is at most the bound
//     whenever the minimum is at most the limit — the only case in which the
//     target survives the cut (see Scratch.solve). A source is skipped only
//     when its lower bound is STRICTLY above the bound. Every source that
//     attains the minimum therefore survives, survivors are evaluated in
//     index order under the same strict <, and the first-index tie rule
//     picks the same argmin as the all-pairs loop.
//
// The cut limit is per entry: lim = cut − rem(e), rem(e) being the 3-D
// travel e still has ahead of it to b, rounded down (layer.rem). first and
// transition give an entry over its limit +Inf; solve holds the argument
// that this leaves the value, the path and the ties unchanged.

// norm3 is the length of the gap vector, summed in (x, y, z) order as
// geom.Box3.DistToBox and DistToPoint sum it.
func norm3(gf, gp, gz float64, useX bool) float64 {
	gx, gy := gf, gp
	if useX {
		gx, gy = gp, gf
	}
	return math.Sqrt(gx*gx + gy*gy + gz*gz)
}

// pointDist is the distance from p to segment k's box, evaluated exactly as
// geom.Box3.DistToPoint on the reassembled box.
func pointDist(t *lineTable, k int, useX bool, p geom.Vec3) float64 {
	pp, pf := p.Y, p.X
	if useX {
		pp, pf = p.X, p.Y
	}
	return norm3(
		geom.RangeGap(t.fLo[k], t.fHi[k], pf, pf),
		geom.RangeGap(t.pLo[k], t.pHi[k], pp, pp),
		geom.RangeGap(t.zLo[k], t.zHi[k], p.Z, p.Z),
		useX)
}

// first seeds the chain: the distance from a to every entry of the first
// kept layer, +Inf for an entry over the cut (see solve); bF and bZ are b's
// free-axis and z coordinates.
//
//sklint:hotpath
func (sc *Scratch) first(l *layer, useX bool, a geom.Vec3, bF, bZ, cut float64) {
	t := l.tab
	dist := sc.dist[l.base : l.base+l.hi-l.lo]
	prev := sc.prev[l.base : l.base+l.hi-l.lo]
	for i := range dist {
		prev[i] = -1
		if l.masked && math.IsInf(dist[i], 1) {
			continue
		}
		k := l.lo + i
		d := pointDist(t, k, useX, a)
		if d > cut-l.rem(geom.RangeGap(t.fLo[k], t.fHi[k], bF, bF), geom.RangeGap(t.zLo[k], t.zHi[k], bZ, bZ)) {
			d = math.Inf(1)
		}
		dist[i] = d
	}
}

// transition computes dist/prev of layer t from the previous kept layer s:
// dist[p] = min over j of dist[j] + boxdist(j, p), prev[p] the first j
// attaining it, for every target whose minimum is at most its cut limit
// lim = cut - rem(p) (see solve); a target over lim gets +Inf. bF and bZ are
// b's free-axis and z coordinates. See the note at the top of the file for
// why the pruning below leaves that result unchanged.
//
//sklint:hotpath
func (sc *Scratch) transition(s, t *layer, useX bool, bF, bZ, cut float64) {
	sn, tn := s.hi-s.lo, t.hi-t.lo
	sdist := sc.dist[s.base : s.base+sn]
	sfLo, sfHi := s.tab.fLo[s.lo:s.hi], s.tab.fHi[s.lo:s.hi]
	spLo, spHi := s.tab.pLo[s.lo:s.hi], s.tab.pHi[s.lo:s.hi]
	szLo, szHi := s.tab.zLo[s.lo:s.hi], s.tab.zHi[s.lo:s.hi]
	tdist := sc.dist[t.base : t.base+tn]
	tprev := sc.prev[t.base : t.base+tn]
	tfLo, tfHi := t.tab.fLo[t.lo:t.hi], t.tab.fHi[t.lo:t.hi]
	tpLo, tpHi := t.tab.pLo[t.lo:t.hi], t.tab.pHi[t.lo:t.hi]
	tzLo, tzHi := t.tab.zLo[t.lo:t.hi], t.tab.zHi[t.lo:t.hi]

	// The plane-axis gap between the two lines bounds every pair's from below.
	planeGap := geom.RangeGap(s.tab.pMin, s.tab.pMax, t.tab.pMin, t.tab.pMax)
	// The prefix and suffix minima of dist stop the outward scans; the
	// smallest dist seeds the first target.
	pre, suf := sc.pre[:sn], sc.suf[:sn]
	seed := 0
	m := math.Inf(1)
	for j, d := range sdist {
		if d < sdist[seed] {
			seed = j
		}
		if d < m {
			m = d
		}
		pre[j] = m
	}
	dmin := m
	m = math.Inf(1)
	for j := sn - 1; j >= 0; j-- {
		if sdist[j] < m {
			m = sdist[j]
		}
		suf[j] = m
	}

	pairs := 0
	for p := 0; p < tn; p++ {
		if t.masked && math.IsInf(tdist[p], 1) {
			tprev[p] = -1
			continue
		}
		fl, fh := tfLo[p], tfHi[p]
		pl, ph := tpLo[p], tpHi[p]
		zl, zh := tzLo[p], tzHi[p]
		lim := cut - t.rem(geom.RangeGap(fl, fh, bF, bF), geom.RangeGap(zl, zh, bZ, bZ))
		// Every pair costs at least the smallest dist plus the plane gap.
		if dmin+planeGap > lim {
			tdist[p] = math.Inf(1)
			tprev[p] = -1
			continue
		}

		// Seed the bound with an attained value: the pair with the previous
		// target's argmin, which is almost always this target's too.
		bound := sdist[seed] + norm3(
			geom.RangeGap(sfLo[seed], sfHi[seed], fl, fh),
			geom.RangeGap(spLo[seed], spHi[seed], pl, ph),
			geom.RangeGap(szLo[seed], szHi[seed], zl, zh),
			useX)
		pairs++
		if lim < bound {
			bound = lim
		}

		// Window: free-axis gaps only grow away from the target and no dist
		// further out is below the prefix (suffix) minimum, so once that
		// minimum + gap passes the bound every source further out is out of
		// reach.
		wlo, whi := seed, seed
		for wlo > 0 && pre[wlo-1]+(fl-sfHi[wlo-1]) <= bound {
			wlo--
		}
		for whi+1 < sn && suf[whi+1]+(sfLo[whi+1]-fh) <= bound {
			whi++
		}

		best := math.Inf(1)
		bestJ := -1
		for j := wlo; j <= whi; j++ {
			dj := sdist[j]
			if dj+planeGap > bound {
				continue
			}
			gf := geom.RangeGap(sfLo[j], sfHi[j], fl, fh)
			if dj+gf > bound {
				continue
			}
			gp := geom.RangeGap(spLo[j], spHi[j], pl, ph)
			gz := geom.RangeGap(szLo[j], szHi[j], zl, zh)
			pairs++
			if d := dj + norm3(gf, gp, gz, useX); d < best {
				best = d
				bestJ = j
				if d < bound {
					bound = d
				}
			}
		}
		if best > lim {
			best = math.Inf(1)
		}
		tdist[p] = best
		tprev[p] = int32(s.base + bestJ)
		if bestJ >= 0 {
			seed = bestJ
		}
	}
	sc.pairs += int64(pairs)
}
