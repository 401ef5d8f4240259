package graph

import "math"

// Inf is the distance reported for unreachable vertices.
var Inf = math.Inf(1)

// The package-level Dijkstra variants allocate per call: each creates a
// throwaway Workspace sized to the graph. A warm caller holds a Workspace
// and writes its own settle loop over Begin, Relax, Min and Pop.

// Dijkstra computes single-source shortest distances from src to every
// vertex. Unreachable vertices get Inf.
func Dijkstra(g *Graph, src int) []float64 {
	return NewWorkspace(g.NumVertices()).Dijkstra(g, src)
}

// DijkstraTarget computes the shortest distance from src to dst, stopping as
// soon as dst's distance is final, and returns the path (vertex sequence
// from src to dst). dist is Inf and path nil when dst is unreachable.
func DijkstraTarget(g *Graph, src, dst int) (float64, []int) {
	w := NewWorkspace(g.NumVertices())
	w.search(g, src)
	w.settle(g, int32(dst))
	d := w.Dist(int32(dst))
	if math.IsInf(d, 1) {
		return Inf, nil
	}
	return d, Path[int](w, int32(dst), nil)
}

// DijkstraMultiTarget computes shortest distances from src to each target,
// stopping once every target's distance is final. The result is parallel to
// targets; unreachable targets get Inf.
func DijkstraMultiTarget(g *Graph, src int, targets []int) []float64 {
	w := NewWorkspace(g.NumVertices())
	w.search(g, src)
	out := make([]float64, len(targets))
	for i, t := range targets {
		w.settle(g, int32(t))
		out[i] = w.Dist(int32(t))
	}
	return out
}
