// Package graph provides the weighted-graph machinery shared by every
// distance computation in the library: network distance on surface meshes
// (upper bounds), layered SDN graphs (lower bounds) and pathnets
// (approximate surface distance). Only non-negative weights are supported,
// as required by Dijkstra's algorithm.
package graph

import "fmt"

// Arc is a weighted directed connection to vertex To.
type Arc struct {
	To int32
	W  float64
}

// Graph is a weighted graph with int-indexed vertices. It has two
// representations:
//
//   - a mutable adjacency-list form ([][]Arc) used while the graph is being
//     built, and
//   - a frozen CSR form (one []int32 offset array plus one packed []Arc
//     slab) entered by Finalize, which every query-time traversal runs
//     against: two flat buffers instead of one pointer-chased slice header
//     per vertex, and a layout that serialises (and mmaps) as-is.
//
// Mutating a finalized graph (AddVertex/AddEdge/AddArc) transparently
// unpacks it back to adjacency-list form; per-vertex arc order is preserved
// exactly in both directions, so traversal order — and therefore every
// distance, path and visit count — is independent of the representation.
type Graph struct {
	adj      [][]Arc
	numEdges int

	// CSR form (valid when finalized): arcs of vertex u are
	// arcs[off[u]:off[u+1]]. len(off) == NumVertices()+1.
	off       []int32
	arcs      []Arc
	finalized bool
}

// New creates a graph with n vertices and no edges.
func New(n int) *Graph {
	return &Graph{adj: make([][]Arc, n)}
}

// FromCSR constructs a finalized graph directly from its CSR buffers (as
// produced by CSR) without copying. numEdges restores the NumEdges counter;
// the buffers are retained, so callers hand over ownership.
func FromCSR(off []int32, arcs []Arc, numEdges int) *Graph {
	if len(off) == 0 {
		off = []int32{0}
	}
	return &Graph{off: off, arcs: arcs, numEdges: numEdges, finalized: true}
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int {
	if g.finalized {
		return len(g.off) - 1
	}
	return len(g.adj)
}

// NumEdges returns the number of AddEdge/AddArc calls (an undirected edge
// counts once).
func (g *Graph) NumEdges() int { return g.numEdges }

// NumArcs returns the total directed-arc count (an undirected edge counts
// twice).
func (g *Graph) NumArcs() int {
	if g.finalized {
		return len(g.arcs)
	}
	n := 0
	for _, a := range g.adj {
		n += len(a)
	}
	return n
}

// Finalized reports whether the graph is in CSR form.
func (g *Graph) Finalized() bool { return g.finalized }

// Finalize packs the adjacency lists into the CSR form and drops them. The
// per-vertex arc order is preserved verbatim (the slab is the in-order
// concatenation of the lists), so finalizing never changes traversal
// results. Finalizing a finalized graph is a no-op.
func (g *Graph) Finalize() {
	if g.finalized {
		return
	}
	n := len(g.adj)
	off := make([]int32, n+1)
	total := 0
	for u, as := range g.adj {
		off[u] = int32(total)
		total += len(as)
	}
	off[n] = int32(total)
	arcs := make([]Arc, total)
	for u, as := range g.adj {
		copy(arcs[off[u]:], as)
	}
	g.off, g.arcs = off, arcs
	g.adj = nil
	g.finalized = true
}

// CSR returns the finalized graph's flat buffers (finalizing first if
// needed). The slices are the graph's own storage: callers must treat them
// as read-only. This is the persistence hook — a snapshot writes these two
// buffers verbatim and FromCSR rebuilds the graph from them.
func (g *Graph) CSR() (off []int32, arcs []Arc) {
	g.Finalize()
	return g.off, g.arcs
}

// definalize unpacks the CSR form back into mutable adjacency lists. Each
// rebuilt list is a full-capacity sub-slice of the slab, so a subsequent
// append copies it out instead of clobbering its neighbour.
func (g *Graph) definalize() {
	if !g.finalized {
		return
	}
	n := len(g.off) - 1
	adj := make([][]Arc, n)
	for u := 0; u < n; u++ {
		lo, hi := g.off[u], g.off[u+1]
		adj[u] = g.arcs[lo:hi:hi]
	}
	g.adj = adj
	g.off, g.arcs = nil, nil
	g.finalized = false
}

// AddVertex appends a new isolated vertex and returns its index.
func (g *Graph) AddVertex() int {
	g.definalize()
	g.adj = append(g.adj, nil)
	return len(g.adj) - 1
}

// AddEdge adds an undirected edge of weight w. Negative weights panic:
// every caller in this library produces lengths, and a negative length is a
// bug upstream that Dijkstra would silently turn into wrong answers.
func (g *Graph) AddEdge(u, v int, w float64) {
	if w < 0 {
		panic(fmt.Sprintf("graph: negative edge weight %g (%d-%d)", w, u, v))
	}
	g.definalize()
	g.adj[u] = append(g.adj[u], Arc{To: int32(v), W: w})
	g.adj[v] = append(g.adj[v], Arc{To: int32(u), W: w})
	g.numEdges++
}

// AddArc adds a directed edge u→v of weight w.
func (g *Graph) AddArc(u, v int, w float64) {
	if w < 0 {
		panic(fmt.Sprintf("graph: negative arc weight %g (%d->%d)", w, u, v))
	}
	g.definalize()
	g.adj[u] = append(g.adj[u], Arc{To: int32(v), W: w})
	g.numEdges++
}

// Arcs returns the outgoing arcs of u. The slice is shared; callers must
// not modify it.
func (g *Graph) Arcs(u int) []Arc {
	if g.finalized {
		return g.arcs[g.off[u]:g.off[u+1]]
	}
	return g.adj[u]
}

// arcsOf is Arcs for the int32 vertex ids the traversals carry.
func (g *Graph) arcsOf(u int32) []Arc {
	if g.finalized {
		return g.arcs[g.off[u]:g.off[u+1]]
	}
	return g.adj[u]
}
