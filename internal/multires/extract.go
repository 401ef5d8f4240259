package multires

import (
	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/mesh"
)

// Network is the resolution-tm cut of the DDM, restricted to an optional
// node filter, materialised as a weighted graph. Edge weights are the
// recorded representative-path distances, so any shortest path in a Network
// corresponds to a real path on the original surface — the source of the
// upper-bound guarantee.
type Network struct {
	G      *graph.Graph
	NodeOf []NodeID         // graph vertex -> tree node
	IdxOf  map[NodeID]int32 // tree node -> graph vertex
	Time   int32
	tree   *Tree
}

// IncludeAll is the node filter admitting every active node.
func IncludeAll(NodeID) bool { return true }

// ExtractNetwork materialises the network of nodes active at time tm that
// pass the include filter. Pass IncludeAll for the whole terrain.
func (t *Tree) ExtractNetwork(tm int32, include func(NodeID) bool) *Network {
	b := networkBuilder{nw: t.newNetwork(tm)}
	for i := range t.Edges {
		if e := &t.Edges[i]; e.Birth <= tm && tm < e.Death && include(e.U) && include(e.W) {
			b.add(e)
		}
	}
	return b.finish()
}

func (t *Tree) newNetwork(tm int32) *Network {
	return &Network{Time: tm, IdxOf: make(map[NodeID]int32), tree: t}
}

// networkBuilder collects a network's edges in the order offered: vertices
// are numbered on first sight (U before W), and finish appends each vertex's
// arcs in that edge order.
type networkBuilder struct {
	nw   *Network
	arcs []builderArc
}

type builderArc struct {
	u, w int32
	d    float64
}

func (b *networkBuilder) idx(v NodeID) int32 {
	if i, ok := b.nw.IdxOf[v]; ok {
		return i
	}
	i := int32(len(b.nw.NodeOf))
	b.nw.IdxOf[v] = i
	b.nw.NodeOf = append(b.nw.NodeOf, v)
	return i
}

func (b *networkBuilder) add(e *EdgeRec) {
	u := b.idx(e.U)
	b.arcs = append(b.arcs, builderArc{u, b.idx(e.W), e.D})
}

func (b *networkBuilder) finish() *Network {
	b.nw.G = graph.New(len(b.nw.NodeOf))
	for _, a := range b.arcs {
		b.nw.G.AddEdge(int(a.u), int(a.w), a.d)
	}
	return b.nw
}

// Embed connects a surface point into the network as a new graph vertex.
// The point links to the active ancestors of its containing face's corners;
// each link weight is the on-facet distance to the corner plus the
// ancestor's Gather bound, so the total remains a valid original-surface
// path length. ok is false when none of the corners' ancestors are present
// (the point's surroundings fall outside the extracted region).
func (nw *Network) Embed(m *mesh.Mesh, sp mesh.SurfacePoint) (int, bool) {
	v := nw.G.AddVertex()
	nw.NodeOf = append(nw.NodeOf, NoNode)
	connected := false
	seen := make(map[int32]bool, 3)
	for _, corner := range sp.Corners(m) {
		anc := nw.tree.AncestorAt(NodeID(corner), nw.Time)
		gi, ok := nw.IdxOf[anc]
		if !ok || seen[gi] {
			continue
		}
		seen[gi] = true
		w := sp.Pos.Dist(m.Verts[corner]) + nw.tree.Nodes[anc].Gather
		nw.G.AddEdge(v, int(gi), w)
		connected = true
	}
	return v, connected
}

// NodePath converts a graph-vertex path into tree nodes, dropping embedded
// (virtual) endpoints.
func (nw *Network) NodePath(path []int) []NodeID {
	out := make([]NodeID, 0, len(path))
	for _, v := range path {
		if v < len(nw.NodeOf) && nw.NodeOf[v] != NoNode {
			out = append(out, nw.NodeOf[v])
		}
	}
	return out
}

// ExtractMesh reconstructs an approximate triangle mesh at time tm by
// mapping every original face to the active ancestors of its corners and
// dropping collapsed (degenerate) faces. This is the DM visualisation
// query (Fig. 1 of the paper).
func (t *Tree) ExtractMesh(m *mesh.Mesh, tm int32) *mesh.Mesh {
	vid := make(map[NodeID]mesh.VertexID)
	var verts []geom.Vec3
	mapv := func(v NodeID) mesh.VertexID {
		if i, ok := vid[v]; ok {
			return i
		}
		i := mesh.VertexID(len(verts))
		vid[v] = i
		verts = append(verts, t.Nodes[v].Pos)
		return i
	}
	var faces [][3]mesh.VertexID
	seen := make(map[[3]mesh.VertexID]bool)
	for _, f := range m.Faces {
		a := mapv(t.AncestorAt(NodeID(f[0]), tm))
		b := mapv(t.AncestorAt(NodeID(f[1]), tm))
		c := mapv(t.AncestorAt(NodeID(f[2]), tm))
		if a == b || b == c || a == c {
			continue
		}
		key := normFace(a, b, c)
		if seen[key] {
			continue
		}
		seen[key] = true
		// Re-orient CCW in projection if the collapse flipped it.
		tri := geom.Triangle2{A: verts[a].XY(), B: verts[b].XY(), C: verts[c].XY()}
		if tri.SignedArea() < 0 {
			b, c = c, b
		}
		faces = append(faces, [3]mesh.VertexID{a, b, c})
	}
	return mesh.New(verts, faces)
}

func normFace(a, b, c mesh.VertexID) [3]mesh.VertexID {
	if a > b {
		a, b = b, a
	}
	if b > c {
		b, c = c, b
	}
	if a > b {
		a, b = b, a
	}
	return [3]mesh.VertexID{a, b, c}
}
