package geom

import "math"

// MBR is an axis-aligned minimum bounding rectangle in the (x,y) plane.
// An empty MBR (one that contains nothing) is represented with
// MinX > MaxX; use EmptyMBR to construct one.
type MBR struct {
	MinX, MinY, MaxX, MaxY float64
}

// EmptyMBR returns the identity element for Extend/Union: a rectangle
// that contains no points.
func EmptyMBR() MBR {
	return MBR{
		MinX: math.Inf(1), MinY: math.Inf(1),
		MaxX: math.Inf(-1), MaxY: math.Inf(-1),
	}
}

// MBROf returns the bounding rectangle of a set of 2-D points.
func MBROf(pts ...Vec2) MBR {
	m := EmptyMBR()
	for _, p := range pts {
		m = m.ExtendPoint(p)
	}
	return m
}

// MBROf3 returns the bounding rectangle of the (x,y) projections of 3-D
// points.
func MBROf3(pts ...Vec3) MBR {
	m := EmptyMBR()
	for _, p := range pts {
		m = m.ExtendPoint(p.XY())
	}
	return m
}

// IsEmpty reports whether the MBR contains no points.
func (m MBR) IsEmpty() bool { return m.MinX > m.MaxX || m.MinY > m.MaxY }

// Width returns the x extent (0 for an empty MBR).
func (m MBR) Width() float64 {
	if m.IsEmpty() {
		return 0
	}
	return m.MaxX - m.MinX
}

// Height returns the y extent (0 for an empty MBR).
func (m MBR) Height() float64 {
	if m.IsEmpty() {
		return 0
	}
	return m.MaxY - m.MinY
}

// Area returns the area of the rectangle (0 for an empty MBR).
func (m MBR) Area() float64 { return m.Width() * m.Height() }

// Center returns the rectangle's centroid.
func (m MBR) Center() Vec2 { return Vec2{(m.MinX + m.MaxX) / 2, (m.MinY + m.MaxY) / 2} }

// ExtendPoint returns the smallest MBR containing both m and p.
func (m MBR) ExtendPoint(p Vec2) MBR {
	return MBR{
		MinX: math.Min(m.MinX, p.X), MinY: math.Min(m.MinY, p.Y),
		MaxX: math.Max(m.MaxX, p.X), MaxY: math.Max(m.MaxY, p.Y),
	}
}

// Union returns the smallest MBR containing both m and o.
func (m MBR) Union(o MBR) MBR {
	if m.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return m
	}
	return MBR{
		MinX: math.Min(m.MinX, o.MinX), MinY: math.Min(m.MinY, o.MinY),
		MaxX: math.Max(m.MaxX, o.MaxX), MaxY: math.Max(m.MaxY, o.MaxY),
	}
}

// Intersects reports whether m and o share at least one point.
func (m MBR) Intersects(o MBR) bool {
	if m.IsEmpty() || o.IsEmpty() {
		return false
	}
	return m.MinX <= o.MaxX && o.MinX <= m.MaxX &&
		m.MinY <= o.MaxY && o.MinY <= m.MaxY
}

// Intersection returns the overlap of m and o (empty if they are disjoint).
func (m MBR) Intersection(o MBR) MBR {
	if !m.Intersects(o) {
		return EmptyMBR()
	}
	return MBR{
		MinX: math.Max(m.MinX, o.MinX), MinY: math.Max(m.MinY, o.MinY),
		MaxX: math.Min(m.MaxX, o.MaxX), MaxY: math.Min(m.MaxY, o.MaxY),
	}
}

// Contains reports whether point p lies inside or on the boundary of m.
func (m MBR) Contains(p Vec2) bool {
	return !m.IsEmpty() &&
		p.X >= m.MinX && p.X <= m.MaxX && p.Y >= m.MinY && p.Y <= m.MaxY
}

// ContainsMBR reports whether o lies entirely inside m.
func (m MBR) ContainsMBR(o MBR) bool {
	if o.IsEmpty() {
		return true
	}
	if m.IsEmpty() {
		return false
	}
	return o.MinX >= m.MinX && o.MaxX <= m.MaxX &&
		o.MinY >= m.MinY && o.MaxY <= m.MaxY
}

// Expand returns m grown by d on every side. A negative d shrinks the
// rectangle (and may make it empty).
func (m MBR) Expand(d float64) MBR {
	if m.IsEmpty() {
		return m
	}
	return MBR{m.MinX - d, m.MinY - d, m.MaxX + d, m.MaxY + d}
}

// DistToPoint returns the minimum Euclidean distance from p to the rectangle
// (0 when p is inside).
func (m MBR) DistToPoint(p Vec2) float64 {
	if m.IsEmpty() {
		return math.Inf(1)
	}
	dx := axisGap(p.X, m.MinX, m.MaxX)
	dy := axisGap(p.Y, m.MinY, m.MaxY)
	return math.Hypot(dx, dy)
}

// DistToMBR returns the minimum Euclidean distance between the two
// rectangles (0 when they intersect).
func (m MBR) DistToMBR(o MBR) float64 {
	if m.IsEmpty() || o.IsEmpty() {
		return math.Inf(1)
	}
	dx := RangeGap(m.MinX, m.MaxX, o.MinX, o.MaxX)
	dy := RangeGap(m.MinY, m.MaxY, o.MinY, o.MaxY)
	return math.Hypot(dx, dy)
}

// OverlapFraction returns |m ∩ o| / min(|m|, |o|), the paper's criterion for
// merging candidate I/O regions ("significantly overlapped, e.g. over 80%").
// It returns 0 when either rectangle is empty or degenerate.
func (m MBR) OverlapFraction(o MBR) float64 {
	inter := m.Intersection(o).Area()
	if inter <= 0 {
		return 0
	}
	small := math.Min(m.Area(), o.Area())
	if small <= 0 {
		return 0
	}
	return inter / small
}

func axisGap(v, lo, hi float64) float64 {
	switch {
	case v < lo:
		return lo - v
	case v > hi:
		return v - hi
	default:
		return 0
	}
}

// RangeGap returns the distance between the intervals [alo, ahi] and
// [blo, bhi] (0 when they meet): one axis of a box-to-box distance.
func RangeGap(alo, ahi, blo, bhi float64) float64 {
	switch {
	case ahi < blo:
		return blo - ahi
	case bhi < alo:
		return alo - bhi
	default:
		return 0
	}
}

// Box3 is an axis-aligned bounding box in 3-D, used for conservative
// line-segment envelopes in the SDN structures.
type Box3 struct {
	Min, Max Vec3
}

// EmptyBox3 returns a box containing no points.
func EmptyBox3() Box3 {
	inf := math.Inf(1)
	return Box3{Min: Vec3{inf, inf, inf}, Max: Vec3{-inf, -inf, -inf}}
}

// Box3Of returns the bounding box of a set of 3-D points.
func Box3Of(pts ...Vec3) Box3 {
	b := EmptyBox3()
	for _, p := range pts {
		b = b.ExtendPoint(p)
	}
	return b
}

// IsEmpty reports whether the box contains no points.
func (b Box3) IsEmpty() bool {
	return b.Min.X > b.Max.X || b.Min.Y > b.Max.Y || b.Min.Z > b.Max.Z
}

// ExtendPoint returns the smallest box containing both b and p.
func (b Box3) ExtendPoint(p Vec3) Box3 {
	return Box3{
		Min: Vec3{math.Min(b.Min.X, p.X), math.Min(b.Min.Y, p.Y), math.Min(b.Min.Z, p.Z)},
		Max: Vec3{math.Max(b.Max.X, p.X), math.Max(b.Max.Y, p.Y), math.Max(b.Max.Z, p.Z)},
	}
}

// Union returns the smallest box containing both b and o.
func (b Box3) Union(o Box3) Box3 {
	if b.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return b
	}
	return Box3{
		Min: Vec3{math.Min(b.Min.X, o.Min.X), math.Min(b.Min.Y, o.Min.Y), math.Min(b.Min.Z, o.Min.Z)},
		Max: Vec3{math.Max(b.Max.X, o.Max.X), math.Max(b.Max.Y, o.Max.Y), math.Max(b.Max.Z, o.Max.Z)},
	}
}

// ContainsBox reports whether o lies entirely inside b.
func (b Box3) ContainsBox(o Box3) bool {
	if o.IsEmpty() {
		return true
	}
	if b.IsEmpty() {
		return false
	}
	return o.Min.X >= b.Min.X && o.Max.X <= b.Max.X &&
		o.Min.Y >= b.Min.Y && o.Max.Y <= b.Max.Y &&
		o.Min.Z >= b.Min.Z && o.Max.Z <= b.Max.Z
}

// DistToBox returns the minimum Euclidean distance between two boxes
// (0 when they intersect). This is the SDN edge weight from the paper:
// "the minimum Euclidian distance between the MBRs of the two line
// segments".
func (b Box3) DistToBox(o Box3) float64 {
	if b.IsEmpty() || o.IsEmpty() {
		return math.Inf(1)
	}
	dx := RangeGap(b.Min.X, b.Max.X, o.Min.X, o.Max.X)
	dy := RangeGap(b.Min.Y, b.Max.Y, o.Min.Y, o.Max.Y)
	dz := RangeGap(b.Min.Z, b.Max.Z, o.Min.Z, o.Max.Z)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// DistToPoint returns the minimum Euclidean distance from p to the box
// (0 when p is inside).
func (b Box3) DistToPoint(p Vec3) float64 {
	if b.IsEmpty() {
		return math.Inf(1)
	}
	dx := axisGap(p.X, b.Min.X, b.Max.X)
	dy := axisGap(p.Y, b.Min.Y, b.Max.Y)
	dz := axisGap(p.Z, b.Min.Z, b.Max.Z)
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// XY returns the (x,y) projection of the box.
func (b Box3) XY() MBR {
	if b.IsEmpty() {
		return EmptyMBR()
	}
	return MBR{b.Min.X, b.Min.Y, b.Max.X, b.Max.Y}
}
