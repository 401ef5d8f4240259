package sdn

import (
	"math"

	"surfknn/internal/geom"
)

// lineTable is the SDN node set of one crossing line at one resolution, laid
// out as parallel arrays (one entry per simplified segment, in line order)
// so the chain kernel reads plain float64 runs instead of chasing
// *CrossLine/Segment values. "Free" is the axis the line runs along (y for
// an XAxis plane, x for a YAxis plane), "plane" the family axis the cutting
// plane fixes. Because a line's points are non-decreasing along the free
// axis (MSDN.Validate), fLo and fHi are each non-decreasing in the segment
// index — the property the region binary search and the kernel's outward
// scan rest on.
type lineTable struct {
	fLo, fHi []float64 // free-axis bounds
	pLo, pHi []float64 // plane-axis bounds (the plane coordinate ± rounding)
	zLo, zHi []float64
	// span holds the n+1 retained point indices: segment k covers the
	// original points span[k]..span[k+1].
	span []int32
	// pMin/pMax bound pLo/pHi over the whole line: the layer-to-layer gap the
	// kernel prunes with, and the shortcut that skips the per-entry plane-axis
	// region test.
	pMin, pMax float64
	// wF and wZ are the widest free-axis and z extents of any entry: the most
	// free-axis (height) travel a box of this line can absorb for a chain
	// passing through it (see layer.rem).
	wF, wZ float64
}

func (t *lineTable) len() int { return len(t.fLo) }

// keepCount is the number of points a line of n points retains at the given
// resolution: prefix-by-rank, never fewer than the two endpoints.
func keepCount(n int, resolution float64) int {
	keep := int(float64(n)*resolution + 0.5)
	if keep < 2 {
		keep = 2
	}
	if keep > n {
		keep = n
	}
	return keep
}

// build fills the empty table t with the line's segments at the given
// resolution, sized exactly: one float64 slab cut into the six bound arrays.
// It is the one materialisation of an SDN level (see MSDN.Materialize). Each
// box accumulates through geom.Box3.ExtendPoint, so its bits equal those of
// a box built by scanning the span's points.
func (t *lineTable) build(cl *CrossLine, resolution float64) {
	n := 0
	keep := 0
	if len(cl.Pts) >= 2 {
		keep = keepCount(len(cl.Pts), resolution)
		n = keep - 1
	}
	slab := make([]float64, 6*n)
	t.fLo, t.fHi = slab[0:n:n], slab[n:2*n:2*n]
	t.pLo, t.pHi = slab[2*n:3*n:3*n], slab[3*n:4*n:4*n]
	t.zLo, t.zHi = slab[4*n:5*n:5*n], slab[5*n:6*n:6*n]
	t.span = make([]int32, n+1)
	t.pMin, t.pMax = math.Inf(1), math.Inf(-1)
	t.wF, t.wZ = 0, 0
	if n == 0 {
		return
	}
	k := -1 // open segment; -1 before the first retained point
	box := geom.EmptyBox3()
	for i, p := range cl.Pts {
		box = box.ExtendPoint(p)
		if cl.Rank[i] >= keep {
			continue
		}
		// A retained point closes the open segment and opens the next.
		if k >= 0 {
			t.set(k, cl.Axis, box)
		}
		k++
		t.span[k] = int32(i)
		box = geom.Box3Of(p)
	}
}

// set stores segment k's box.
func (t *lineTable) set(k int, axis Axis, b geom.Box3) {
	if axis == XAxis {
		t.pLo[k], t.pHi[k], t.fLo[k], t.fHi[k] = b.Min.X, b.Max.X, b.Min.Y, b.Max.Y
	} else {
		t.fLo[k], t.fHi[k], t.pLo[k], t.pHi[k] = b.Min.X, b.Max.X, b.Min.Y, b.Max.Y
	}
	t.zLo[k], t.zHi[k] = b.Min.Z, b.Max.Z
	t.pMin, t.pMax = math.Min(t.pMin, t.pLo[k]), math.Max(t.pMax, t.pHi[k])
	t.wF, t.wZ = math.Max(t.wF, t.fHi[k]-t.fLo[k]), math.Max(t.wZ, t.zHi[k]-t.zLo[k])
}

// box reassembles segment k's conservative box.
func (t *lineTable) box(k int, axis Axis) geom.Box3 {
	if axis == XAxis {
		return geom.Box3{
			Min: geom.Vec3{X: t.pLo[k], Y: t.fLo[k], Z: t.zLo[k]},
			Max: geom.Vec3{X: t.pHi[k], Y: t.fHi[k], Z: t.zHi[k]},
		}
	}
	return geom.Box3{
		Min: geom.Vec3{X: t.fLo[k], Y: t.pLo[k], Z: t.zLo[k]},
		Max: geom.Vec3{X: t.fHi[k], Y: t.pHi[k], Z: t.zHi[k]},
	}
}

// run returns the half-open range of segments in [from, to) whose free-axis
// interval meets [minF, maxF] — two binary searches over the monotone
// bounds, in place of testing every segment's box. A NaN bound selects
// nothing, as the box test it replaces did.
func (t *lineTable) run(from, to int, minF, maxF float64) (lo, hi int) {
	// First segment with fHi >= minF.
	lo, hi = from, to
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); t.fHi[mid] >= minF {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	first := lo
	// First segment at or after it with fLo > maxF (or incomparable).
	hi = to
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); t.fLo[mid] <= maxF {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return first, lo
}

// meets reports whether entry k's plane-axis interval meets [lo, hi]: the
// plane-axis half of a footprint-box intersection test, false on a NaN.
func (t *lineTable) meets(k int, lo, hi float64) bool {
	return lo <= t.pHi[k] && t.pLo[k] <= hi
}

// keeps reports whether entry k belongs to a layer clipped to the plane-axis
// band [minP, maxP] of a region whose free-axis run contains k and, when env
// is not empty, to the envelope env of the line's axis: its footprint meets
// a non-empty box of env. It is what mask keeps — mask finds each box's
// free-axis run by binary search, which selects exactly the entries whose
// free-axis interval meets the box's, the bounds being monotone along the
// line.
func (t *lineTable) keeps(k int, axis Axis, env []geom.MBR, minP, maxP float64) bool {
	if !t.meets(k, minP, maxP) {
		return false
	}
	if len(env) == 0 {
		return true
	}
	for _, e := range env {
		eMinF, eMaxF, eMinP, eMaxP := axis.freePlane(e)
		if !e.IsEmpty() && eMinF <= t.fHi[k] && t.fLo[k] <= eMaxF && t.meets(k, eMinP, eMaxP) {
			return true
		}
	}
	return false
}

// level is one materialised resolution: a table per crossing line, parallel
// to MSDN.XLines and MSDN.YLines.
type level struct {
	res  float64
	x, y []lineTable
}

// Materialize builds the segment tables of every crossing line at each of
// the given resolutions and keeps them on the MSDN. A lower bound reads
// these shared tables, and one asked at any other resolution panics. It is a
// setup step: call it before queries start — afterwards the tables are
// immutable and shared read-only by every session.
func (ms *MSDN) Materialize(resolutions []float64) {
	ms.levels = make([]level, len(resolutions))
	for i, res := range resolutions {
		lv := level{res: res, x: make([]lineTable, len(ms.XLines)), y: make([]lineTable, len(ms.YLines))}
		for li, cl := range ms.XLines {
			lv.x[li].build(cl, res)
		}
		for li, cl := range ms.YLines {
			lv.y[li].build(cl, res)
		}
		ms.levels[i] = lv
	}
}

// NumSegments returns the number of segments of the i-th materialised
// resolution: how many boxes Footprints(i, ...) visits.
func (ms *MSDN) NumSegments(i int) int {
	n := 0
	for _, fam := range [][]lineTable{ms.levels[i].x, ms.levels[i].y} {
		for li := range fam {
			n += fam[li].len()
		}
	}
	return n
}

// Footprints calls visit with the (x,y) box of every segment of the i-th
// materialised resolution: X-family lines first, then Y-family, each line's
// segments in line order — the order the paged SDN records are written in.
func (ms *MSDN) Footprints(i int, visit func(geom.MBR)) {
	lv := &ms.levels[i]
	for axis, fam := range [][]lineTable{XAxis: lv.x, YAxis: lv.y} {
		for li := range fam {
			t := &fam[li]
			for k := 0; k < t.len(); k++ {
				visit(t.box(k, Axis(axis)).XY())
			}
		}
	}
}

// tables returns the shared per-line tables of one family at exactly this
// resolution. No caller asks for a resolution that was not materialised, so
// one that was not is a panic.
func (ms *MSDN) tables(useX bool, resolution float64) []lineTable {
	for i := range ms.levels {
		//lint:ignore float-eq a level is keyed by the exact resolution it was built at; a near miss must not borrow a neighbour's tables
		if ms.levels[i].res == resolution {
			if useX {
				return ms.levels[i].x
			}
			return ms.levels[i].y
		}
	}
	panic("sdn: lower bound at a resolution the MSDN did not materialise")
}
