package sdn

import (
	"fmt"
	"math"

	"surfknn/internal/mesh"
)

// MSDN holds both cutting-plane families over a terrain at full resolution;
// lower resolutions are derived at query time by nested point retention and
// by thinning the plane set (the paper: "for a request of low resolution
// SDN data, we reduce the density of crossing lines selected too").
type MSDN struct {
	XLines []*CrossLine // ordered by plane coordinate
	YLines []*CrossLine
	// Spacing is the plane interval; the paper recommends the average edge
	// length of the original mesh for the densest setting.
	Spacing float64

	// levels holds the segment tables of the materialised resolutions (see
	// Materialize): derived data, rebuilt on load, immutable once built.
	levels []level
}

// BuildMSDN extracts both plane families with the given spacing. A
// non-positive spacing defaults to the mesh's average edge length.
func BuildMSDN(m *mesh.Mesh, spacing float64) *MSDN {
	return BuildMSDNSubdiv(m, spacing, DefaultSubdiv)
}

// DefaultSubdiv is the default crossing-line subdivision: each intra-face
// portion of a crossing line contributes this many points, keeping segment
// boxes finer than the plane spacing so that transverse and vertical
// movement between planes shows up in the chained bound.
const DefaultSubdiv = 4

// BuildMSDNSubdiv is BuildMSDN with an explicit subdivision factor.
func BuildMSDNSubdiv(m *mesh.Mesh, spacing float64, subdiv int) *MSDN {
	ext := m.Extent()
	if spacing <= 0 {
		spacing = m.AverageEdgeLength()
	}
	if subdiv < 1 {
		subdiv = 1
	}
	ms := &MSDN{Spacing: spacing}
	for x := ext.MinX + spacing; x < ext.MaxX-spacing/2; x += spacing {
		if cl := extractCrossLine(m, XAxis, x, subdiv); len(cl.Pts) >= 2 {
			ms.XLines = append(ms.XLines, cl)
		}
	}
	for y := ext.MinY + spacing; y < ext.MaxY-spacing/2; y += spacing {
		if cl := extractCrossLine(m, YAxis, y, subdiv); len(cl.Pts) >= 2 {
			ms.YLines = append(ms.YLines, cl)
		}
	}
	return ms
}

// NumLines returns the total number of crossing lines stored.
func (ms *MSDN) NumLines() int { return len(ms.XLines) + len(ms.YLines) }

// NumPoints returns the total number of crossing-line points stored.
func (ms *MSDN) NumPoints() int {
	var n int
	for _, l := range ms.XLines {
		n += len(l.Pts)
	}
	for _, l := range ms.YLines {
		n += len(l.Pts)
	}
	return n
}

// linesBetweenInto fills dst (truncated first) with the indices of the
// planes whose coordinate lies strictly between lo and hi, thinned by step
// (every step-th plane) but always at least one when any exists. Thinning
// compacts in place (dst[n] = dst[i] with i >= n), so the warm query path
// reuses one buffer across calls.
func linesBetweenInto(lines []*CrossLine, lo, hi float64, step int, dst []int32) []int32 {
	between := dst[:0]
	for i, l := range lines {
		if l.Coord > lo && l.Coord < hi {
			between = append(between, int32(i))
		}
	}
	if step <= 1 || len(between) == 0 {
		return between
	}
	n := 0
	for i := 0; i < len(between); i += step {
		between[n] = between[i]
		n++
	}
	return between[:n]
}

// planeStepFor maps an SDN resolution to a plane-thinning step.
func planeStepFor(resolution float64) int {
	if resolution >= 1 {
		return 1
	}
	step := int(math.Round(1 / resolution))
	if step < 1 {
		step = 1
	}
	return step
}

// Validate checks the invariants the segment tables and the chain kernel
// rest on, so that a corrupt or forged MSDN is rejected on load instead of
// producing an unsound lower bound: each family's lines carry that family's
// axis and are strictly ordered by plane coordinate; every line has at least
// two points, all finite and non-decreasing along the line's free axis (the
// region binary search needs monotone segment bounds); and Rank is a
// permutation of 0..n-1 with the endpoints at 0 and 1 (prefix-by-rank
// retention then keeps exactly keepCount points, endpoints included).
func (ms *MSDN) Validate() error {
	if !finite(ms.Spacing) {
		return fmt.Errorf("sdn: spacing %v is not finite", ms.Spacing)
	}
	for fam, lines := range [][]*CrossLine{ms.XLines, ms.YLines} {
		axis := Axis(fam)
		for li, cl := range lines {
			if err := cl.validate(axis); err != nil {
				return fmt.Errorf("sdn: family %d line %d: %w", fam, li, err)
			}
			if li > 0 && !(lines[li-1].Coord < cl.Coord) {
				return fmt.Errorf("sdn: family %d line %d: plane coordinate %v not above the previous line's %v", fam, li, cl.Coord, lines[li-1].Coord)
			}
		}
	}
	return nil
}

func (cl *CrossLine) validate(axis Axis) error {
	n := len(cl.Pts)
	switch {
	case cl.Axis != axis:
		return fmt.Errorf("axis %d in the wrong family", cl.Axis)
	case !finite(cl.Coord):
		return fmt.Errorf("plane coordinate %v is not finite", cl.Coord)
	case n < 2:
		return fmt.Errorf("%d points, need at least 2", n)
	case len(cl.Rank) != n:
		return fmt.Errorf("%d ranks for %d points", len(cl.Rank), n)
	case cl.Rank[0] != 0 || cl.Rank[n-1] != 1:
		return fmt.Errorf("endpoint ranks %d, %d, want 0, 1", cl.Rank[0], cl.Rank[n-1])
	}
	seen := make([]bool, n)
	prevFree := math.Inf(-1)
	for i, p := range cl.Pts {
		r := cl.Rank[i]
		if r < 0 || r >= n || seen[r] {
			return fmt.Errorf("rank %d of point %d is out of range or repeated", r, i)
		}
		seen[r] = true
		if !finite(p.X) || !finite(p.Y) || !finite(p.Z) {
			return fmt.Errorf("point %d %v is not finite", i, p)
		}
		free := p.Y
		if axis == YAxis {
			free = p.X
		}
		if free < prevFree {
			return fmt.Errorf("point %d runs backwards along the line (%v after %v)", i, free, prevFree)
		}
		prevFree = free
	}
	return nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
