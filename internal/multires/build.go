package multires

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/simplify"
)

// Build replays a QEM collapse history into the DDM tree, recording edge
// lifetimes and the distance annotation of §3.2:
//
//	d(c,w) = d(a,w)            if w ∈ N(a)
//	d(c,w) = d(b,w) + d(a,b)   if w ∈ N(b) − N(a)
//
// where the collapse merges a and b into c and a carries the representative.
func Build(m *mesh.Mesh, hist *simplify.History) (*Tree, error) {
	n := hist.NumLeaves
	if n != m.NumVerts() {
		return nil, fmt.Errorf("multires: history has %d leaves for a %d-vertex mesh", n, m.NumVerts())
	}
	total := hist.NumNodes()
	t := &Tree{
		Nodes:     make([]Node, total),
		NumLeaves: n,
		maxTime:   int32(n - 1),
	}
	deathless := int32(n) // root's death: one past the last time
	for v := 0; v < n; v++ {
		p := m.Verts[v]
		t.Nodes[v] = Node{
			Parent: NoNode, Left: NoNode, Right: NoNode,
			Rep:    mesh.VertexID(v),
			RepPos: p,
			Pos:    p,
			Birth:  0, Death: deathless,
			MBR: geom.MBROf(p.XY()),
		}
	}

	// Live adjacency: for each active node, its neighbours with the index
	// of the edge record joining them, sorted by neighbour, so records can
	// be closed when an endpoint dies.
	adj := make([][]link, total)
	addEdge := func(u, w NodeID, d float64, birth int32) {
		idx := int32(len(t.Edges))
		t.Edges = append(t.Edges, EdgeRec{U: u, W: w, D: d, Birth: birth, Death: deathless})
		adj[u] = append(adj[u], link{w, idx})
		adj[w] = append(adj[w], link{u, idx})
	}
	for _, e := range m.Edges() {
		addEdge(NodeID(e.A), NodeID(e.B), m.EdgeLength(e), 0)
	}
	for _, l := range adj[:n] {
		slices.SortFunc(l, func(x, y link) int { return cmp.Compare(x.w, y.w) })
	}
	unlink := func(w, gone NodeID) {
		adj[w] = slices.DeleteFunc(adj[w], func(l link) bool { return l.w == gone })
	}

	for i, c := range hist.Collapses {
		now := int32(i + 1) // a and b die, parent is born, at time i+1
		a, b, parent := NodeID(c.A), NodeID(c.B), NodeID(c.Parent)
		if int(parent) != n+i {
			return nil, fmt.Errorf("multires: collapse %d has parent %d, want %d", i, parent, n+i)
		}
		na, nb := &t.Nodes[a], &t.Nodes[b]
		dAB := c.Dist
		t.Nodes[parent] = Node{
			Parent: NoNode, Left: a, Right: b,
			Error:  c.Error,
			Rep:    na.Rep,
			RepPos: na.RepPos,
			Pos:    c.Pos,
			Gather: math.Max(na.Gather, nb.Gather+dAB),
			Birth:  now, Death: deathless,
			MBR: na.MBR.Union(nb.MBR),
		}
		na.Parent, nb.Parent = parent, parent
		na.Death, nb.Death = now, now

		// Close all edge records incident to a or b (unlinking a from b's
		// list too), then derive the parent's neighbour distances:
		// d(c,w) = d(a,w) when w ∈ N(a), otherwise d(b,w) + d(a,b).
		for _, l := range adj[a] {
			t.Edges[l.idx].Death = now
			unlink(l.w, a)
		}
		for _, l := range adj[b] {
			t.Edges[l.idx].Death = now
			unlink(l.w, b)
		}
		la, lb := adj[a], adj[b]
		adj[a], adj[b] = nil, nil
		// Both lists are sorted, so the union is one merge in ascending
		// neighbour order, which keeps edge-record order — and with it the
		// on-disk clustering — deterministic run to run. The parent has the
		// largest ID yet, so appending it keeps every neighbour's list
		// sorted.
		adj[parent] = make([]link, 0, len(la)+len(lb))
		x, y := 0, 0
		for x < len(la) || y < len(lb) {
			switch {
			case y == len(lb) || (x < len(la) && la[x].w < lb[y].w):
				if la[x].w != b {
					addEdge(parent, la[x].w, t.Edges[la[x].idx].D, now)
				}
				x++
			case x == len(la) || lb[y].w < la[x].w:
				addEdge(parent, lb[y].w, t.Edges[lb[y].idx].D+dAB, now)
				y++
			default: // a neighbour of both: a's distance wins
				addEdge(parent, la[x].w, t.Edges[la[x].idx].D, now)
				x++
				y++
			}
		}
	}
	return t, nil
}

// link is one live adjacency entry: the neighbour and the edge record.
type link struct {
	w   NodeID
	idx int32
}

// BuildFromMesh simplifies the mesh and builds the tree in one call.
func BuildFromMesh(m *mesh.Mesh) (*Tree, error) {
	hist, err := simplify.Simplify(m)
	if err != nil {
		return nil, err
	}
	return Build(m, hist)
}
