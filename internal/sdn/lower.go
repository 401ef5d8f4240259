package sdn

import (
	"math"

	"surfknn/internal/geom"
)

// LowerEstimate is the result of one SDN lower-bound estimation.
type LowerEstimate struct {
	LB float64
	// Path holds the SDN segments realising the bound, one per crossing
	// line; MR3's dummy-lower-bound optimisation thickens this path into an
	// envelope for the next, cheaper estimate. When the estimate was
	// produced through a Scratch, Path aliases that scratch and is valid
	// only until its next use — copy it to keep it.
	Path []Segment
	// Segments counts the SDN nodes examined (a CPU-cost proxy).
	Segments int
}

// layer is one crossing line's contribution to a chain: a contiguous run of
// one of the MSDN's segment tables and where its dist/prev entries sit in the
// arena.
type layer struct {
	line   *CrossLine
	tab    *lineTable
	lo, hi int // run [lo, hi) of tab
	base   int // arena index of tab entry lo
	// masked: some entries inside the run are not part of the layer (outside
	// the region on the plane axis, outside the envelope, or over the cut);
	// their dist is +Inf, which no transition can select.
	masked bool
	// plane, wF and wZ give the travel every chain still has ahead of it
	// from this layer to b (see rem): the plane-axis travel, and the
	// free-axis and z extents the later layers' boxes can absorb.
	plane, wF, wZ float64
}

// Scratch holds the reusable buffers of the lower-bound estimator, so a warm
// estimation allocates nothing. The layered chain DP runs over one arena:
// every kept layer's run is appended to dist/prev (prev holds absolute arena
// indices, -1 on the first layer). Segment geometry is not copied — layers
// point into the MSDN's shared, immutable level tables. A Scratch is owned
// by a single goroutine; zero value is ready to use.
type Scratch struct {
	between   []int32    // indices into the chosen family's lines, a's side first
	envBoxes  []geom.MBR // envelope boxes, margin on both axes
	envNarrow []geom.MBR // the same boxes with the margin on the plane axis only
	layers    []layer
	dist      []float64
	prev      []int32
	pre, suf  []float64 // prefix and suffix minima of a source layer's dist
	path      []Segment
	pathAlt   []Segment // parks the first family's path in LowerBoundBothScratch
	pairs     int64
}

// Pairs returns the number of box-to-box pairs this scratch has fully
// evaluated (box distance and square root computed) since it was created —
// the work the kernel's pruning leaves, against the all-pairs product of
// consecutive layer sizes — and those of the witness chains, one per entry
// their outward scans score.
func (sc *Scratch) Pairs() int64 { return sc.pairs }

// LowerBound estimates a lower bound on the surface distance between a and
// b at the given SDN resolution, restricted to region (pass the search
// ellipse's MBR; the bound is valid for any path staying inside region,
// in particular for every path no longer than the current upper bound when
// region is that upper bound's ellipse). The resolution must be one the
// MSDN materialised (see Materialize); any other panics.
//
// The Euclidean distance is always a valid floor, so the result is never
// below it.
func (ms *MSDN) LowerBound(a, b geom.Vec3, region geom.MBR, resolution float64) LowerEstimate {
	var sc Scratch
	return ms.LowerBoundScratch(&sc, a, b, region, resolution)
}

// LowerBoundScratch is LowerBound running over reusable scratch. The
// returned Path aliases sc.
func (ms *MSDN) LowerBoundScratch(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64) LowerEstimate {
	est, _ := ms.chain(sc, prefersX(a, b), a, b, region, resolution, planeStepFor(resolution), envelope{})
	return est
}

// LowerBoundBothScratch estimates with BOTH plane families and returns the
// larger bound. The paper's 45° heuristic picks a single family; since each
// family's chain is independently valid, their maximum is a strictly
// tighter (never worse) bound at roughly twice the cost. Offered as an
// extension; see the BenchmarkAblationBothFamilies targets.
func (ms *MSDN) LowerBoundBothScratch(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64) LowerEstimate {
	useX := prefersX(a, b)
	step := planeStepFor(resolution)
	first, _ := ms.chain(sc, useX, a, b, region, resolution, step, envelope{})
	if len(first.Path) > 0 {
		// The second run rebuilds sc.path; park the first family's path.
		sc.pathAlt = append(sc.pathAlt[:0], first.Path...)
		first.Path = sc.pathAlt
	}
	other, _ := ms.chain(sc, !useX, a, b, region, resolution, step, envelope{})
	if other.LB > first.LB {
		other.Segments += first.Segments
		return other
	}
	first.Segments += other.Segments
	return first
}

// prefersX applies the paper's heuristic: when the (x,y) direction between
// the points makes an angle below 45° with the x-axis, travel is mostly
// along x, so y-perpendicular planes (XAxis family) separate them best;
// otherwise use YAxis planes.
func prefersX(a, b geom.Vec3) bool {
	return math.Abs(b.X-a.X) >= math.Abs(b.Y-a.Y)
}

// EnvelopeExceeds is the paper's "dummy lower bound" (§4.2.2) as the decision
// MR3 takes with it. The dummy bound restricts the SDN to an envelope around
// the previous bound's path prev (its boxes thickened by margin), which can
// only increase the estimate; EnvelopeExceeds reports whether
// max(floor, that bound) > threshold. When it does not, the true lower bound
// at this resolution cannot pass threshold either and the caller skips the
// full computation. prev is a path a lower bound returned (its boxes are not
// empty) and must not alias sc's own path buffers — pass a caller-owned copy;
// an empty prev makes the envelope the whole SDN.
//
// The value is never returned because only the comparison is used, and the
// comparison is usually settled before the envelope chain is worth running.
// Four tiers, cheapest first; each returns what max(floor, wide) > threshold
// would, wide being the envelope chain's value with its Euclidean floor:
//
//   - Floor: floor > threshold decides "exceeds" with no chain at all.
//   - Witness: one greedy chain through the wide envelope's layers (witness),
//     summed as the DP sums. The DP's value is at most any chain's, so
//     max(witness, |ab|) <= threshold certifies "does not exceed". The
//     Euclidean floor belongs to the value: without it a witness under
//     threshold says nothing when |ab| is over it.
//   - Narrow: a chain over the NARROW envelope: prev's boxes thickened by
//     margin along the plane axis only (so the planes a finer step adds
//     between prev's are still reached) and not at all along the free axis.
//     Every narrow box lies inside its wide box, so each layer keeps a subset
//     of the entries the wide envelope keeps. As long as every layer the wide
//     envelope keeps is also non-empty under the narrow one, the two chains
//     run over the same sequence of layers, and narrow's DP is a minimum over
//     a subset of wide's chains: by induction over the layers
//     dist_narrow[p] >= dist_wide[p] for every entry p narrow keeps — the
//     first layer's values are the same point distances, and
//     fl(dist[j] + d(j,p)) is monotone in dist[j] under round-to-nearest, the
//     box distance d(j,p) being the same float in both runs — and the closing
//     minimum and the Euclidean floor are monotone too. Hence narrow >= wide
//     as floats, and narrow <= threshold certifies wide <= threshold: "does
//     not exceed". A layer that is empty under the narrow boxes is masked
//     again with the wide ones. Empty under both, both chains skip it. If the
//     wide boxes keep anything, the chains no longer share their layers —
//     narrow would skip a plane wide must cross and could come out LOWER — so
//     the certificate is abandoned.
//   - Wide: only when no tier above settled it does the wide chain run, and
//     its value decides.
//
// The narrow and the wide chain run under a cut at threshold (see solve):
// they drop entries no chain of value <= threshold passes through, so their
// value is exact whenever it is <= threshold and above threshold otherwise,
// and a layer the cut empties answers "above" at once.
func (ms *MSDN) EnvelopeExceeds(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64, prev []Segment, margin, floor, threshold float64) bool {
	if floor > threshold {
		return true
	}
	useX, step := prefersX(a, b), planeStepFor(resolution)
	wide := envelope{path: prev, margin: margin}
	ms.collect(sc, useX, a, b, region, resolution, step, wide)
	if math.Max(sc.witness(useX, a, b), a.Dist(b)) <= threshold {
		return false
	}
	cut := threshold * (1 + cutSlack)
	if len(prev) > 0 && margin >= 0 { // a negative margin would make the narrow boxes the larger ones
		if _, ok := ms.collect(sc, useX, a, b, region, resolution, step, envelope{path: prev, margin: margin, narrow: true}); ok {
			if lb, _ := sc.solve(useX, a, b, cut); lb <= threshold {
				return false
			}
		}
		ms.collect(sc, useX, a, b, region, resolution, step, wide) // the narrow run reused the arena
	}
	lb, _ := sc.solve(useX, a, b, cut)
	return lb > threshold
}

// envelope restricts a chain to the SDN entries near a previous bound's
// path: those whose footprint touches one of the path's boxes thickened by
// margin — on both axes, or with narrow set on the chain family's plane axis
// only. The zero value is no restriction.
type envelope struct {
	path   []Segment
	margin float64
	narrow bool
}

// cutSlack widens every cut (a witness length or a threshold) by far more
// than the rounding a chain of floating-point sums can accumulate; see solve.
const cutSlack = 1e-9

// chain runs the layered chain DP over one plane family with an explicit
// plane-thinning step and returns its value, a lower bound. For a FIXED step
// the bound is monotone in the point resolution (boxes only shrink); across
// different steps the bound is still always valid but need not be pointwise
// monotone, which is why MR3 keeps the running maximum. All per-layer state
// lives in sc's arena buffers. The DP runs under a cut at its own witness's
// length (see solve), which leaves the bound, the path and the first-index
// ties unchanged.
//
// The boolean is false only for a narrow envelope that emptied a layer its
// wide form keeps (see EnvelopeExceeds); the estimate is then void.
func (ms *MSDN) chain(sc *Scratch, useX bool, a, b geom.Vec3, region geom.MBR, resolution float64, step int, env envelope) (LowerEstimate, bool) {
	segments, ok := ms.collect(sc, useX, a, b, region, resolution, step, env)
	if !ok {
		return LowerEstimate{}, false
	}
	lb, bestK := sc.solve(useX, a, b, sc.witness(useX, a, b)*(1+cutSlack))
	est := LowerEstimate{LB: lb, Segments: segments}
	if bestK >= 0 {
		est.Path = sc.tracePath(bestK)
	}
	return est, true
}

// tracePath reconstructs into sc.path the chain solve closed at arena entry
// bestK, for the envelope optimisation: the prev chain walks one layer back
// per step and ends at -1 on the first layer.
func (sc *Scratch) tracePath(bestK int) []Segment {
	sc.path = sc.path[:0]
	for li, k := len(sc.layers)-1, bestK; k >= 0; li, k = li-1, int(sc.prev[k]) {
		l := &sc.layers[li]
		e := l.lo + k - l.base
		sc.path = append(sc.path, Segment{
			Line: l.line,
			I:    int(l.tab.span[e]),
			J:    int(l.tab.span[e+1]),
			Box:  l.tab.box(e, l.line.Axis),
		})
	}
	for i, j := 0, len(sc.path)-1; i < j; i, j = i+1, j-1 {
		sc.path[i], sc.path[j] = sc.path[j], sc.path[i]
	}
	return sc.path
}

// collect lays out a chain's layers in sc: the lines strictly between a and
// b on the family's axis, thinned by step and ordered from a's side, each
// clipped to region and the envelope. A line the region or the envelope
// cuts entirely is skipped (the chain then weakens but stays valid); every
// other line becomes a layer whose arena span holds 0 for its kept entries
// and +Inf for the rest, trimmed to the first and last kept entry. It
// returns the number of entries kept over all layers, and false for a
// narrow envelope that emptied a layer its wide form keeps.
func (ms *MSDN) collect(sc *Scratch, useX bool, a, b geom.Vec3, region geom.MBR, resolution float64, step int, env envelope) (segments int, ok bool) {
	tabs := ms.tables(useX, resolution)
	sc.layers = sc.layers[:0]
	// Axis roles for this family: "plane" is the coordinate the cutting
	// planes fix, "free" the one their crossing lines run along.
	lines := ms.YLines
	aPlane, bPlane := a.Y, b.Y
	minF, maxF, minP, maxP := region.MinX, region.MaxX, region.MinY, region.MaxY
	if useX {
		lines = ms.XLines
		aPlane, bPlane = a.X, b.X
		minF, maxF, minP, maxP = minP, maxP, minF, maxF
	}
	sc.between = linesBetweenInto(lines, math.Min(aPlane, bPlane), math.Max(aPlane, bPlane), step, sc.between)
	between := sc.between
	if len(between) == 0 || region.IsEmpty() {
		// No plane separates the points, or the region cuts every line.
		return 0, true
	}
	// Order the planes from a's side to b's side.
	if math.Abs(lines[between[0]].Coord-aPlane) > math.Abs(lines[between[len(between)-1]].Coord-aPlane) {
		for i, j := 0, len(between)-1; i < j; i, j = i+1, j-1 {
			between[i], between[j] = between[j], between[i]
		}
	}

	sc.envBoxes, sc.envNarrow = sc.envBoxes[:0], sc.envNarrow[:0]
	for _, s := range env.path {
		m := s.Box.XY()
		sc.envBoxes = append(sc.envBoxes, m.Expand(env.margin))
		if !env.narrow {
			continue
		}
		// The wide box's plane-axis sides, the footprint's own free-axis ones.
		if useX {
			m.MinX, m.MaxX = m.MinX-env.margin, m.MaxX+env.margin
		} else {
			m.MinY, m.MaxY = m.MinY-env.margin, m.MaxY+env.margin
		}
		sc.envNarrow = append(sc.envNarrow, m)
	}
	boxes := sc.envBoxes
	if env.narrow {
		boxes = sc.envNarrow
	}

	end, widest := 0, 0 // arena length, longest layer
	for _, li := range between {
		cl, tab := lines[li], &tabs[li]
		lo, hi := tab.run(0, tab.len(), minF, maxF)
		if lo == hi {
			// The region cut this line entirely; a path could still cross
			// it outside the clipped area, so skip the layer (weakens but
			// never invalidates the bound).
			continue
		}
		l := layer{line: cl, tab: tab, lo: lo, hi: hi, base: end}
		n := hi - lo
		sc.dist = growF64(sc.dist, end+n)
		sc.prev = growI32(sc.prev, end+n)
		kept := n
		if len(boxes) > 0 || !(minP <= tab.pMin && tab.pMax <= maxP) {
			var first int
			kept, first, n = mask(sc.dist[end:end+n], &l, boxes, minP, maxP)
			if kept == 0 && env.narrow {
				if wide, _, _ := mask(sc.dist[end:end+hi-lo], &l, sc.envBoxes, minP, maxP); wide > 0 {
					return segments, false
				}
			}
			// Trim the run to the span of kept entries; what is still
			// dropped inside it stays in the arena at +Inf.
			copy(sc.dist[end:end+n], sc.dist[end+first:])
			l.lo, l.hi = lo+first, lo+first+n
			l.masked = kept < n
		} else {
			clear(sc.dist[end : end+n])
		}
		segments += kept
		if kept == 0 {
			continue
		}
		sc.layers = append(sc.layers, l)
		end += n
		widest = max(widest, n)
	}
	sc.pre = growF64(sc.pre, widest)
	sc.suf = growF64(sc.suf, widest)

	// The travel ahead of each layer (see rem): on the plane axis, the gap
	// from its line to b less the plane-axis widths of the lines after it;
	// on the free and z axes, the sums of the later lines' widest extents.
	sp, sf, sz := 0.0, 0.0, 0.0
	for i := len(sc.layers) - 1; i >= 0; i-- {
		l := &sc.layers[i]
		t := l.tab
		l.plane = ahead(geom.RangeGap(t.pMin, t.pMax, bPlane, bPlane), sp)
		l.wF, l.wZ = sf, sz
		sp += t.pMax - t.pMin
		sf += t.wF
		sz += t.wZ
	}
	return segments, true
}

// rem bounds from below the travel every chain still has ahead of it from
// an entry of layer l to b, given the entry's free-axis and z gaps to b:
// √(P² + F² + Z²), P being the layer's plane-axis travel ahead (the gap from
// its line to b less the later lines' plane widths: lines are straight
// cuts, but extraction rounding leaves them slightly wide), F the free-axis
// gap less the widest free-axis extents of the later lines (l.wF), Z the
// same on the z axis. Each remaining leg costs at least the length of
// its gap vector; by Minkowski's inequality the legs together cost at least
// the length of the sum of those vectors, and on each axis the gaps from the
// entry through one box per later line to b sum to at least the entry's
// gap to b less the widths of those boxes (each box absorbs at most its own
// width). P, F and Z are each rounded down by remSlack of their terms, the
// root by remSlack of itself — more than the rounding of the sums and the
// root, so rem is never above the exact travel (squares below 10⁻³⁰⁸ would
// lose that, but gaps between coordinates are never that small without
// being zero).
//
//sklint:hotpath
func (l *layer) rem(gf, gz float64) float64 {
	f, z := ahead(gf, l.wF), ahead(gz, l.wZ)
	return math.Sqrt(l.plane*l.plane+f*f+z*z) * (1 - remSlack)
}

// ahead is the gap g less the widths w later boxes can absorb, rounded down
// by remSlack of both and floored at zero.
//
//sklint:hotpath
func ahead(g, w float64) float64 {
	if d := g - w - remSlack*(g+w); !(d < 0) {
		return d
	}
	return 0
}

// remSlack is the relative amount by which the travel ahead is rounded
// down: above (n+5)·2⁻⁵³ for any n < 10⁵ layers.
const remSlack = 1e-10

// solve runs the chain DP over the layers collect laid out, under a cut,
// and returns max(best chain, |ab|) with the arena index of the closing
// entry, or -1 when no layer was kept (the value is then |ab|).
//
// The cut. On each layer, every entry e whose dist exceeds lim = cut - rem(e)
// is dropped (and the transition does not look for its sources beyond lim).
// rem(e) bounds from below the cost any chain still pays from e on (see
// layer.rem), so an entry on a chain of value v has
// dist + rem <= v·(1 + 2⁻⁵³·(4·layers + 5)), far below v·(1 + cutSlack).
// Then, by induction along the reference DP's own path
// (first-index argmin at every step):
//
//   - if that path's value is <= cut/(1+cutSlack), every entry on it
//     survives: each has dist <= lim;
//   - the argmin source of each of its entries survives, and every other
//     surviving source has a dist no lower than the uncut DP's (a minimum
//     over fewer chains, each summed with the same monotone fl steps), so
//     the same first index attains the same minimum; likewise at the close.
//
// So the value, the path and the ties are the uncut DP's whenever its value
// is <= cut/(1+cutSlack). The value chains (chain) cut at their witness's
// length, which bounds the DP's value; the decision chains (EnvelopeExceeds)
// cut at the threshold, where a value above the threshold may come out
// larger still, or as +Inf when the cut empties a layer — the uncut value is
// then above the threshold too.
func (sc *Scratch) solve(useX bool, a, b geom.Vec3, cut float64) (lb float64, bestK int) {
	euclid := a.Dist(b)
	if len(sc.layers) == 0 {
		return euclid, -1
	}
	bF := b.X
	if useX {
		bF = b.Y
	}
	for i := range sc.layers {
		l := &sc.layers[i]
		if i == 0 {
			sc.first(l, useX, a, bF, b.Z, cut)
		} else {
			sc.transition(&sc.layers[i-1], l, useX, bF, b.Z, cut)
		}
		if !sc.trim(l) {
			return math.Inf(1), -1
		}
	}
	// Close the chain at b over the last kept layer.
	last := &sc.layers[len(sc.layers)-1]
	best := math.Inf(1)
	bestK = -1
	for k := last.lo; k < last.hi; k++ {
		if d := sc.dist[last.base+k-last.lo] + pointDist(last.tab, k, useX, b); d < best {
			best = d
			bestK = last.base + k - last.lo
		}
	}
	if bestK < 0 {
		return euclid, -1
	}
	// The Euclidean distance is always a valid floor.
	return math.Max(best, euclid), bestK
}

// trim trims the layer's run to the span of the entries the DP step kept
// (first or transition drops the ones over the cut as +Inf). It reports
// whether any survived.
func (sc *Scratch) trim(l *layer) bool {
	dist := sc.dist[l.base : l.base+l.hi-l.lo]
	first, last := -1, -1
	kept := 0
	for i, d := range dist {
		if math.IsInf(d, 1) {
			continue
		}
		if first < 0 {
			first = i
		}
		last = i
		kept++
	}
	if kept == 0 {
		return false
	}
	l.base += first
	l.lo += first
	l.hi = l.lo + last + 1 - first
	l.masked = kept < last+1-first
	return true
}

// mask marks which entries of the layer's run belong to the layer — inside
// the region on the plane axis and, with an envelope, touching one of its
// boxes — writing 0 into dist for those and +Inf for the rest. It returns
// the number kept and the span (first index, length) from the first kept
// entry to the last.
//
// A box's entries are found by binary search: the free-axis bounds are
// monotone along the line, so the entries whose free-axis interval meets
// the box's are one run (lineTable.run), and only those are tested on the
// plane axis. The test is geom.MBR.Intersects of the box with the entry's
// footprint, written out: an empty box meets nothing, and a NaN bound fails
// every comparison.
func mask(dist []float64, l *layer, env []geom.MBR, minP, maxP float64) (kept, first, span int) {
	t := l.tab
	for i := range dist {
		dist[i] = math.Inf(1)
		if k := l.lo + i; len(env) == 0 && t.pLo[k] <= maxP && minP <= t.pHi[k] {
			dist[i] = 0
		}
	}
	for _, e := range env {
		eMinF, eMaxF, eMinP, eMaxP := e.MinX, e.MaxX, e.MinY, e.MaxY
		if l.line.Axis == XAxis {
			eMinF, eMaxF, eMinP, eMaxP = eMinP, eMaxP, eMinF, eMaxF
		}
		if e.IsEmpty() || !(eMinP <= t.pMax && t.pMin <= eMaxP) {
			continue // meets no entry of the line
		}
		lo, hi := t.run(l.lo, l.lo+len(dist), eMinF, eMaxF)
		for k := lo; k < hi; k++ {
			if eMinP <= t.pHi[k] && t.pLo[k] <= eMaxP && t.pLo[k] <= maxP && minP <= t.pHi[k] {
				dist[k-l.lo] = 0
			}
		}
	}
	last := -1
	for i, d := range dist {
		if math.IsInf(d, 1) {
			continue
		}
		if kept == 0 {
			first = i
		}
		kept++
		last = i
	}
	return kept, first, last + 1 - first
}

// growF64 resizes s to n entries, preserving the first len(s) values and
// allocating only when the capacity is short.
func growF64(s []float64, n int) []float64 {
	if n <= cap(s) {
		return s[:n]
	}
	ns := make([]float64, n, n+n/2)
	copy(ns, s)
	return ns
}

// growI32 is growF64 for []int32.
func growI32(s []int32, n int) []int32 {
	if n <= cap(s) {
		return s[:n]
	}
	ns := make([]int32, n, n+n/2)
	copy(ns, s)
	return ns
}
