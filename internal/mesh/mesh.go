// Package mesh implements the triangulated irregular network (TIN) that
// represents a terrain surface: an indexed triangle mesh with vertex/face
// adjacency, grid triangulation, point location and point embedding. It is
// the "original surface model" on top of which the paper's DMTM and MSDN
// structures are built.
package mesh

import (
	"fmt"
	"sync"

	"surfknn/internal/geom"
)

// VertexID identifies a vertex within a Mesh.
type VertexID int32

// FaceID identifies a triangular face within a Mesh.
type FaceID int32

// NoFace marks the absence of a neighbouring face (mesh boundary).
const NoFace FaceID = -1

// NoVertex marks the absence of a vertex.
const NoVertex VertexID = -1

// Mesh is an indexed triangle mesh. Faces store vertex triples in
// counter-clockwise order when viewed from above (+z).
type Mesh struct {
	Verts []geom.Vec3
	Faces [][3]VertexID

	// The adjacency tables are built on first use, exactly once however
	// many goroutines ask at the same time (the setup stages and sessions
	// share one mesh); EmbedPoint, which changes the faces, resets the Once.
	adjOnce   sync.Once
	adj       [][3]FaceID // adj[f][i] = face sharing edge (Faces[f][i], Faces[f][(i+1)%3])
	vertFaces [][]FaceID  // faces incident to each vertex
}

// New creates a mesh from vertex and face lists. Adjacency is built lazily.
func New(verts []geom.Vec3, faces [][3]VertexID) *Mesh {
	return &Mesh{Verts: verts, Faces: faces}
}

// NumVerts returns the vertex count.
func (m *Mesh) NumVerts() int { return len(m.Verts) }

// NumFaces returns the face count.
func (m *Mesh) NumFaces() int { return len(m.Faces) }

// Vertex returns the position of vertex v.
func (m *Mesh) Vertex(v VertexID) geom.Vec3 { return m.Verts[v] }

// Triangle returns the 3-D triangle of face f.
func (m *Mesh) Triangle(f FaceID) geom.Triangle3 {
	t := m.Faces[f]
	return geom.Triangle3{A: m.Verts[t[0]], B: m.Verts[t[1]], C: m.Verts[t[2]]}
}

// ensureAdjacency builds the face-adjacency and vertex-incidence tables on
// first use. Every reader waits for the one build, so no caller sees a nil
// or half-filled table.
func (m *Mesh) ensureAdjacency() {
	m.adjOnce.Do(m.buildAdjacency)
}

func (m *Mesh) buildAdjacency() {
	m.vertFaces = make([][]FaceID, len(m.Verts))
	type halfEdge struct {
		face FaceID
		side int
	}
	edgeMap := make(map[[2]VertexID]halfEdge, len(m.Faces)*3/2)
	m.adj = make([][3]FaceID, len(m.Faces))
	for f := range m.Faces {
		m.adj[f] = [3]FaceID{NoFace, NoFace, NoFace}
	}
	for fi, face := range m.Faces {
		f := FaceID(fi)
		for i := 0; i < 3; i++ {
			m.vertFaces[face[i]] = append(m.vertFaces[face[i]], f)
			a, b := face[i], face[(i+1)%3]
			key := edgeKey(a, b)
			if prev, ok := edgeMap[key]; ok {
				m.adj[f][i] = prev.face
				m.adj[prev.face][prev.side] = f
			} else {
				edgeMap[key] = halfEdge{face: f, side: i}
			}
		}
	}
}

func edgeKey(a, b VertexID) [2]VertexID {
	if a > b {
		a, b = b, a
	}
	return [2]VertexID{a, b}
}

// AdjacentFace returns the face sharing edge side (between Faces[f][side]
// and Faces[f][(side+1)%3]) with f, or NoFace on the boundary.
func (m *Mesh) AdjacentFace(f FaceID, side int) FaceID {
	m.ensureAdjacency()
	return m.adj[f][side]
}

// FacesOfVertex returns the faces incident to v. The returned slice is
// shared; callers must not modify it.
func (m *Mesh) FacesOfVertex(v VertexID) []FaceID {
	m.ensureAdjacency()
	return m.vertFaces[v]
}

// Edge is an undirected mesh edge with A < B.
type Edge struct {
	A, B VertexID
}

// Edges returns every undirected edge exactly once.
func (m *Mesh) Edges() []Edge {
	seen := make(map[Edge]struct{}, len(m.Faces)*3/2)
	out := make([]Edge, 0, len(m.Faces)*3/2)
	for _, face := range m.Faces {
		for i := 0; i < 3; i++ {
			k := edgeKey(face[i], face[(i+1)%3])
			e := Edge{k[0], k[1]}
			if _, ok := seen[e]; !ok {
				seen[e] = struct{}{}
				out = append(out, e)
			}
		}
	}
	return out
}

// EdgeLength returns the Euclidean length of edge e.
func (m *Mesh) EdgeLength(e Edge) float64 {
	return m.Verts[e.A].Dist(m.Verts[e.B])
}

// AverageEdgeLength returns the mean edge length (0 for an empty mesh).
// The paper uses it as the densest MSDN plane spacing.
func (m *Mesh) AverageEdgeLength() float64 {
	edges := m.Edges()
	if len(edges) == 0 {
		return 0
	}
	var sum float64
	for _, e := range edges {
		sum += m.EdgeLength(e)
	}
	return sum / float64(len(edges))
}

// VertexNeighbors returns the vertices connected to v by an edge.
func (m *Mesh) VertexNeighbors(v VertexID) []VertexID {
	m.ensureAdjacency()
	seen := make(map[VertexID]struct{}, 8)
	var out []VertexID
	for _, f := range m.vertFaces[v] {
		for _, w := range m.Faces[f] {
			if w == v {
				continue
			}
			if _, ok := seen[w]; !ok {
				seen[w] = struct{}{}
				out = append(out, w)
			}
		}
	}
	return out
}

// Extent returns the (x,y) bounding rectangle of all vertices.
func (m *Mesh) Extent() geom.MBR {
	r := geom.EmptyMBR()
	for _, v := range m.Verts {
		r = r.ExtendPoint(v.XY())
	}
	return r
}

// SurfaceArea returns the total 3-D area of all faces.
func (m *Mesh) SurfaceArea() float64 {
	var a float64
	for f := range m.Faces {
		a += m.Triangle(FaceID(f)).Area()
	}
	return a
}

// Clone returns a deep copy of the mesh.
func (m *Mesh) Clone() *Mesh {
	verts := make([]geom.Vec3, len(m.Verts))
	copy(verts, m.Verts)
	faces := make([][3]VertexID, len(m.Faces))
	copy(faces, m.Faces)
	return New(verts, faces)
}

// String summarises the mesh.
func (m *Mesh) String() string {
	return fmt.Sprintf("mesh{%d verts, %d faces}", len(m.Verts), len(m.Faces))
}
