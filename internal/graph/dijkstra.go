package graph

import "math"

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// The package-level Dijkstra variants are the allocate-per-call
// convenience API: each creates a throwaway Workspace sized to the graph
// and delegates. Query loops that run warm should hold a Workspace (see
// core.Session) and call its methods directly — those are the zero-alloc
// hot paths.

// Dijkstra computes single-source shortest distances from src to every
// vertex. Unreachable vertices get Inf.
func Dijkstra(g *Graph, src int) []float64 {
	w := NewWorkspace(g.NumVertices())
	return w.Dijkstra(g, src)
}

// DijkstraTarget computes the shortest distance from src to dst, stopping as
// soon as dst is settled, and returns the path (vertex sequence from src to
// dst). dist is Inf and path nil when dst is unreachable.
func DijkstraTarget(g *Graph, src, dst int) (float64, []int) {
	w := NewWorkspace(g.NumVertices())
	d, path := w.DijkstraTarget(g, src, dst)
	if path == nil {
		return d, nil
	}
	out := make([]int, len(path))
	copy(out, path)
	return d, out
}

// DijkstraMultiTarget computes shortest distances from src to each target,
// stopping once every target has been settled. The result is parallel to
// targets; unreachable targets get Inf.
func DijkstraMultiTarget(g *Graph, src int, targets []int) []float64 {
	w := NewWorkspace(g.NumVertices())
	return w.DijkstraMultiTarget(g, src, targets, make([]float64, len(targets)))
}
