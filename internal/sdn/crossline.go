// Package sdn implements the paper's Multiresolution Support Distance
// Network (MSDN, §3.3): families of axis-aligned cutting planes are
// intersected with the terrain to obtain *crossing lines*; any surface path
// between two points must cross every plane lying between them, so chaining
// minimum distances between (conservative boxes of) crossing-line segments
// yields a lower bound on the surface distance. Keeping each simplified
// segment's box as the bounding box of ALL original points it spans — the
// paper's modification of line generalisation — makes the bound valid at
// every resolution and monotonically non-decreasing as resolution grows.
//
// Two forms reach a caller: the bound itself (LowerBound, LowerBoundScratch,
// the latter exact only up to the limit its caller compares it with) and
// the decision MR3 takes with the §4.2.2 dummy bound (EnvelopeExceeds),
// which returns no value because only a comparison is used and the
// comparison is usually settled by a far cheaper chain. The
// rule on both sides of the package boundary is that an estimation is skipped
// only when its result is determined; the arguments are written where the
// code is (EnvelopeExceeds in lower.go, the pruning in kernel.go).
package sdn

import (
	"sort"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

// Axis selects a cutting-plane family.
type Axis int

const (
	// XAxis planes are x = const (their crossing lines run along y).
	XAxis Axis = iota
	// YAxis planes are y = const (their crossing lines run along x).
	YAxis
)

// CrossLine is one terrain profile: the polyline obtained by intersecting a
// cutting plane with the surface, ordered along the line. Rank[i] is the
// retention priority of point i (lower rank = kept at coarser resolutions);
// prefix-by-rank retention makes resolutions nested.
type CrossLine struct {
	Axis  Axis
	Coord float64 // plane position (x for XAxis, y for YAxis)
	Pts   []geom.Vec3
	Rank  []int
}

// extractCrossLine intersects the plane with every face it crosses and
// assembles the intersection points into an ordered polyline, subdividing
// each intra-face portion subdiv times. Subdivision points are exact
// surface points (the crossing line is straight within a planar face), so
// they shrink the segment boxes — and thereby tighten the lower bound —
// without any approximation. For terrain meshes (z a function of (x,y))
// the result is a single chain ordered by the free coordinate.
func extractCrossLine(m *mesh.Mesh, axis Axis, coord float64, subdiv int) *CrossLine {
	type pt struct {
		key float64
		p   geom.Vec3
	}
	var pts []pt
	add := func(p geom.Vec3) {
		key := p.Y
		if axis == YAxis {
			key = p.X
		}
		pts = append(pts, pt{key, p})
	}
	for f := 0; f < m.NumFaces(); f++ {
		tri := m.Triangle(mesh.FaceID(f))
		corners := [3]geom.Vec3{tri.A, tri.B, tri.C}
		for i := 0; i < 3; i++ {
			a, b := corners[i], corners[(i+1)%3]
			var va, vb float64
			if axis == XAxis {
				va, vb = a.X, b.X
			} else {
				va, vb = a.Y, b.Y
			}
			t, ok := crossAt(va, vb, coord)
			if !ok {
				continue
			}
			add(a.Lerp(b, t))
		}
	}
	if len(pts) == 0 {
		return &CrossLine{Axis: axis, Coord: coord}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].key < pts[j].key })
	// Deduplicate nearly-identical points (shared edges produce doubles).
	dedup := make([]geom.Vec3, 0, len(pts)/2+1)
	for _, e := range pts {
		if len(dedup) > 0 && dedup[len(dedup)-1].Dist(e.p) < 1e-9 {
			continue
		}
		dedup = append(dedup, e.p)
	}
	out := dedup
	if subdiv > 1 {
		out = make([]geom.Vec3, 0, len(dedup)*subdiv)
		for i, p := range dedup {
			if i > 0 {
				prev := dedup[i-1]
				for k := 1; k < subdiv; k++ {
					out = append(out, prev.Lerp(p, float64(k)/float64(subdiv)))
				}
			}
			out = append(out, p)
		}
	}
	cl := &CrossLine{Axis: axis, Coord: coord, Pts: out}
	cl.Rank = dpRanks(out)
	return cl
}

func crossAt(a, b, v float64) (float64, bool) {
	//lint:ignore float-eq exact a == b guards the division by (b - a) below; an epsilon would reject valid near-degenerate crossings
	if (a < v && b < v) || (a > v && b > v) || a == b {
		return 0, false
	}
	t := (v - a) / (b - a)
	if t < 0 || t > 1 {
		return 0, false
	}
	return t, true
}

// dpRanks assigns Douglas–Peucker-style retention priorities: endpoints get
// rank 0 and 1; every other point's rank reflects the recursion depth at
// which DP would introduce it, ordered by decreasing deviation. Retaining
// all points with rank < k yields the k most shape-preserving points, and
// retention sets are nested across resolutions.
func dpRanks(pts []geom.Vec3) []int {
	n := len(pts)
	ranks := make([]int, n)
	for i := range ranks {
		ranks[i] = n // sentinel: not yet ranked
	}
	if n == 0 {
		return ranks
	}
	ranks[0] = 0
	if n == 1 {
		return ranks
	}
	ranks[n-1] = 1
	next := 2
	type span struct {
		lo, hi int
		dev    float64
		split  int
	}
	eval := func(lo, hi int) span {
		s := span{lo: lo, hi: hi, split: -1}
		if hi-lo < 2 {
			return s
		}
		seg := geom.Segment3{A: pts[lo], B: pts[hi]}
		for i := lo + 1; i < hi; i++ {
			if d := seg.DistToPoint(pts[i]); d >= s.dev {
				s.dev = d
				s.split = i
			}
		}
		return s
	}
	// Priority processing by maximum deviation gives the global retention
	// order (not just per-branch depth).
	spans := []span{eval(0, n-1)}
	for len(spans) > 0 {
		// Pop the span with the largest deviation.
		best := 0
		for i := 1; i < len(spans); i++ {
			if spans[i].dev > spans[best].dev {
				best = i
			}
		}
		s := spans[best]
		spans[best] = spans[len(spans)-1]
		spans = spans[:len(spans)-1]
		if s.split < 0 {
			continue
		}
		ranks[s.split] = next
		next++
		spans = append(spans, eval(s.lo, s.split), eval(s.split, s.hi))
	}
	return ranks
}

// Retained returns the indices of the points kept at the given resolution
// (fraction of points in (0,1]); endpoints are always kept. The returned
// indices are sorted and nested across resolutions.
func (cl *CrossLine) Retained(resolution float64) []int {
	n := len(cl.Pts)
	if n == 0 {
		return nil
	}
	keep := keepCount(n, resolution)
	idx := make([]int, 0, keep)
	for i, r := range cl.Rank {
		if r < keep {
			idx = append(idx, i)
		}
	}
	return idx
}

// Segment is one node of an SDN: a simplified crossing-line segment and its
// conservative box (covering every original point in its span).
type Segment struct {
	Line *CrossLine
	I, J int // span [I..J] of original points
	Box  geom.Box3
}

// Segments returns the SDN nodes of the line at the given resolution whose
// boxes intersect the (x,y) region. It materialises a fresh table per call;
// the lower-bound estimator reads the MSDN's shared tables instead.
func (cl *CrossLine) Segments(resolution float64, region geom.MBR) []Segment {
	var t lineTable
	t.build(cl, resolution)
	segs := make([]Segment, 0, t.len())
	for k := 0; k < t.len(); k++ {
		box := t.box(k, cl.Axis)
		if !box.XY().Intersects(region) {
			continue
		}
		segs = append(segs, Segment{Line: cl, I: int(t.span[k]), J: int(t.span[k+1]), Box: box})
	}
	return segs
}
