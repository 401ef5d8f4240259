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
	// the region on the plane axis, or outside the envelope); their dist is
	// +Inf, which no transition can select.
	masked bool
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
	path      []Segment
	pathAlt   []Segment // parks the first family's path in LowerBoundBothScratch
	pairs     int64
}

// Pairs returns the number of layer-transition pairs this scratch has fully
// evaluated (box distance and square root computed) since it was created —
// the work the kernel's pruning leaves, against the all-pairs product of
// consecutive layer sizes.
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
// comparison is usually settled before the envelope chain is worth running:
//
//   - floor > threshold decides "exceeds" with no chain at all.
//   - Otherwise a chain over the NARROW envelope runs first: prev's boxes
//     thickened by margin along the plane axis only (so the planes a finer
//     step adds between prev's are still reached) and not at all along the
//     free axis. Every narrow box lies inside its wide box, so each layer keeps
//     a subset of the entries the wide envelope keeps. As long as every layer
//     the wide envelope keeps is also non-empty under the narrow one, the two
//     chains run over the same sequence of layers, and narrow's DP is a minimum
//     over a subset of wide's chains: by induction over the layers
//     dist_narrow[p] >= dist_wide[p] for every entry p narrow keeps — the first
//     layer's values are the same point distances, and fl(dist[j] + d(j,p)) is
//     monotone in dist[j] under round-to-nearest, the box distance d(j,p)
//     being the same float in both runs — and the closing minimum and the
//     Euclidean floor are monotone too. Hence narrow >= wide as floats, and
//     narrow <= threshold certifies wide <= threshold: "does not exceed".
//   - A layer that is empty under the narrow boxes is masked again with the
//     wide ones. Empty under both, both chains skip it. If the wide boxes
//     keep anything, the chains no longer share their layers — narrow would
//     skip a plane wide must cross and could come out LOWER — so the
//     certificate is abandoned and the narrow value discarded.
//   - Only when the narrow chain was abandoned or came out above threshold
//     does the wide chain run, and its value decides.
//
// Each branch returns what max(floor, wide) > threshold would, so the
// decision is the one the value-returning dummy bound gave.
func (ms *MSDN) EnvelopeExceeds(sc *Scratch, a, b geom.Vec3, region geom.MBR, resolution float64, prev []Segment, margin, floor, threshold float64) bool {
	if floor > threshold {
		return true
	}
	useX, step := prefersX(a, b), planeStepFor(resolution)
	if len(prev) > 0 && margin >= 0 { // a negative margin would make the narrow boxes the larger ones
		if narrow, ok := ms.chain(sc, useX, a, b, region, resolution, step, envelope{path: prev, margin: margin, narrow: true}); ok && narrow.LB <= threshold {
			return false
		}
	}
	wide, _ := ms.chain(sc, useX, a, b, region, resolution, step, envelope{path: prev, margin: margin})
	return wide.LB > threshold
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

// chain runs the layered chain DP over one plane family with an explicit
// plane-thinning step. For a FIXED step the bound is monotone in the point
// resolution (boxes only shrink); across different steps the bound is still
// always valid but need not be pointwise monotone, which is why MR3 keeps
// the running maximum. All per-layer state lives in sc's arena buffers.
//
// The boolean is false only for a narrow envelope that emptied a layer its
// wide form keeps (see EnvelopeExceeds); the estimate is then void.
func (ms *MSDN) chain(sc *Scratch, useX bool, a, b geom.Vec3, region geom.MBR, resolution float64, step int, env envelope) (LowerEstimate, bool) {
	tabs := ms.tables(useX, resolution)
	euclid := a.Dist(b)
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
		return LowerEstimate{LB: euclid}, true
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

	// Layered dynamic program: dist[k] = shortest chain from a to arena
	// entry k. Each kept layer occupies a contiguous arena span; prev holds
	// absolute indices into the previous span (-1 on the first).
	est := LowerEstimate{}
	sc.layers = sc.layers[:0]
	end := 0 // arena length
	for _, li := range between {
		cl, tab := lines[li], &tabs[li]
		lo, hi := tab.run(minF, maxF)
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
					return LowerEstimate{}, false
				}
			}
			// Trim the run to the span of kept entries; what is still
			// dropped inside it stays in the arena at +Inf.
			copy(sc.dist[end:end+n], sc.dist[end+first:])
			l.lo, l.hi = lo+first, lo+first+n
			l.masked = kept < n
		}
		est.Segments += kept
		if kept == 0 {
			continue
		}
		if len(sc.layers) == 0 {
			sc.first(&l, useX, a)
		} else {
			sc.transition(&sc.layers[len(sc.layers)-1], &l, useX)
		}
		sc.layers = append(sc.layers, l)
		end += n
	}
	if len(sc.layers) == 0 {
		return LowerEstimate{LB: euclid, Segments: est.Segments}, true
	}
	// Close the chain at b over the last kept layer.
	last := &sc.layers[len(sc.layers)-1]
	best := math.Inf(1)
	bestK := -1
	for k := last.lo; k < last.hi; k++ {
		if d := sc.dist[last.base+k-last.lo] + pointDist(last.tab, k, useX, b); d < best {
			best = d
			bestK = last.base + k - last.lo
		}
	}
	if bestK < 0 {
		est.LB = euclid
		return est, true
	}
	// The Euclidean distance is always a valid floor.
	est.LB = math.Max(best, euclid)
	// Reconstruct the path for the envelope optimisation: the prev chain
	// walks one layer back per step and ends at -1 on the first layer.
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
	est.Path = sc.path
	return est, true
}

// mask marks which entries of the layer's run belong to the layer — inside
// the region on the plane axis and, with an envelope, touching one of its
// boxes — writing 0 into dist for those and +Inf for the rest. It returns
// the number kept and the span (first index, length) from the first kept
// entry to the last.
func mask(dist []float64, l *layer, env []geom.MBR, minP, maxP float64) (kept, first, span int) {
	last := -1
	for i := range dist {
		k := l.lo + i
		ok := l.tab.pLo[k] <= maxP && minP <= l.tab.pHi[k]
		if ok && len(env) > 0 {
			ok = envIntersects(env, l.tab.box(k, l.line.Axis).XY())
		}
		if !ok {
			dist[i] = math.Inf(1)
			continue
		}
		dist[i] = 0
		if kept == 0 {
			first = i
		}
		kept++
		last = i
	}
	return kept, first, last + 1 - first
}

// envIntersects reports whether the footprint touches any envelope box. A
// function rather than a closure: the chain DP calls it statically and
// nothing escapes.
func envIntersects(env []geom.MBR, xy geom.MBR) bool {
	for _, e := range env {
		if e.Intersects(xy) {
			return true
		}
	}
	return false
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
