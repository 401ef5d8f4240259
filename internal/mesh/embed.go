package mesh

import (
	"errors"
	"fmt"
	"sync"

	"surfknn/internal/geom"
)

// ErrOutsideMesh is returned when a point to embed falls outside the
// triangulated area.
var ErrOutsideMesh = errors.New("mesh: point outside triangulated area")

// EmbedPoint inserts a point at (x,y) as a new mesh vertex, lifting it onto
// the surface (interpolated elevation) and splitting the containing face
// into three. This is the "embedding process ... to add the point as a new
// vertex in the surface model by connecting it to the vertices of the same
// triangular facet" from §3.2 of the paper. If the point coincides with an
// existing vertex of the containing face, that vertex is returned instead
// and the mesh is unchanged.
func (m *Mesh) EmbedPoint(loc *Locator, p geom.Vec2) (VertexID, error) {
	f := loc.Locate(p)
	if f == NoFace {
		return NoVertex, fmt.Errorf("%w: (%g,%g)", ErrOutsideMesh, p.X, p.Y)
	}
	tri := m.Triangle(f)
	for i, v := range m.Faces[f] {
		var corner geom.Vec3
		switch i {
		case 0:
			corner = tri.A
		case 1:
			corner = tri.B
		default:
			corner = tri.C
		}
		if corner.XY().Dist(p) < geom.Eps {
			return v, nil
		}
	}
	z, ok := tri.InterpolateZ(p)
	if !ok {
		return NoVertex, fmt.Errorf("mesh: degenerate face %d while embedding (%g,%g)", f, p.X, p.Y)
	}
	nv := VertexID(len(m.Verts))
	m.Verts = append(m.Verts, geom.Vec3{X: p.X, Y: p.Y, Z: z})
	a, b, c := m.Faces[f][0], m.Faces[f][1], m.Faces[f][2]
	// Replace face f with (a,b,nv) and append (b,c,nv), (c,a,nv).
	m.Faces[f] = [3]VertexID{a, b, nv}
	m.Faces = append(m.Faces, [3]VertexID{b, c, nv}, [3]VertexID{c, a, nv})
	m.adjOnce = sync.Once{} // the tables no longer match the faces: rebuild on next use
	m.adj, m.vertFaces = nil, nil
	return nv, nil
}

// Validate checks structural invariants: vertex indices in range,
// non-degenerate faces, each edge shared by at most two faces, and
// consistent counter-clockwise orientation in (x,y) projection. It returns
// the first violation found, or nil.
func (m *Mesh) Validate() error {
	n := VertexID(len(m.Verts))
	edgeUse := make(map[[2]VertexID]int, len(m.Faces)*3/2)
	for fi, face := range m.Faces {
		for i := 0; i < 3; i++ {
			if face[i] < 0 || face[i] >= n {
				return fmt.Errorf("mesh: face %d references vertex %d out of range [0,%d)", fi, face[i], n)
			}
		}
		if face[0] == face[1] || face[1] == face[2] || face[0] == face[2] {
			return fmt.Errorf("mesh: face %d has repeated vertices %v", fi, face)
		}
		tri := m.Triangle(FaceID(fi))
		area := geom.Triangle2{A: tri.A.XY(), B: tri.B.XY(), C: tri.C.XY()}.SignedArea()
		if area < 0 {
			return fmt.Errorf("mesh: face %d is clockwise in projection (signed area %g)", fi, area)
		}
		for i := 0; i < 3; i++ {
			k := edgeKey(face[i], face[(i+1)%3])
			edgeUse[k]++
			if edgeUse[k] > 2 {
				return fmt.Errorf("mesh: edge %v shared by more than two faces", k)
			}
		}
	}
	return nil
}
