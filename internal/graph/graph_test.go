package graph

import (
	"math"
	"math/rand"
	"testing"
)

// lineGraph returns 0-1-2-...-(n-1) with unit weights.
func lineGraph(n int) *Graph {
	g := New(n)
	for i := 0; i < n-1; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := New(3)
	if g.NumVertices() != 3 {
		t.Errorf("NumVertices = %d", g.NumVertices())
	}
	g.AddEdge(0, 1, 2.5)
	g.AddArc(1, 2, 1)
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d", g.NumEdges())
	}
	if len(g.Arcs(0)) != 1 || len(g.Arcs(1)) != 2 || len(g.Arcs(2)) != 0 {
		t.Error("adjacency lists wrong")
	}
	v := g.AddVertex()
	if v != 3 || g.NumVertices() != 4 {
		t.Errorf("AddVertex = %d", v)
	}
}

func TestNegativeWeightPanics(t *testing.T) {
	g := New(2)
	defer func() {
		if recover() == nil {
			t.Error("negative weight should panic")
		}
	}()
	g.AddEdge(0, 1, -1)
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(5)
	d := Dijkstra(g, 0)
	for i := 0; i < 5; i++ {
		if d[i] != float64(i) {
			t.Errorf("d[%d] = %v", i, d[i])
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	d := Dijkstra(g, 0)
	if !math.IsInf(d[2], 1) {
		t.Errorf("unreachable d[2] = %v", d[2])
	}
	dist, path := DijkstraTarget(g, 0, 2)
	if !math.IsInf(dist, 1) || path != nil {
		t.Errorf("unreachable target: %v %v", dist, path)
	}
}

func TestDijkstraTargetPath(t *testing.T) {
	//     1
	//  0 --- 1
	//  |     |
	//  4     1
	//  |     |
	//  3 --- 2
	//     1
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 4)
	dist, path := DijkstraTarget(g, 0, 3)
	if dist != 3 {
		t.Errorf("dist = %v, want 3", dist)
	}
	want := []int{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path = %v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path = %v, want %v", path, want)
		}
	}
}

func TestDijkstraMultiTarget(t *testing.T) {
	g := lineGraph(10)
	got := DijkstraMultiTarget(g, 3, []int{0, 7, 3, 7})
	want := []float64{3, 4, 0, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// Property: Dijkstra distances satisfy the triangle inequality over edges —
// for every edge (u,v,w): d[v] <= d[u] + w.
func TestDijkstraRelaxationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 50 + rng.Intn(100)
		g := New(n)
		for i := 0; i < n*3; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				g.AddEdge(u, v, rng.Float64()*10)
			}
		}
		d := Dijkstra(g, 0)
		for u := 0; u < n; u++ {
			if math.IsInf(d[u], 1) {
				continue
			}
			for _, a := range g.Arcs(u) {
				if d[a.To] > d[u]+a.W+1e-9 {
					t.Fatalf("relaxation violated: d[%d]=%v > d[%d]=%v + %v", a.To, d[a.To], u, d[u], a.W)
				}
			}
		}
	}
}

func TestHeapOrdering(t *testing.T) {
	var h minHeap
	vals := []float64{5, 3, 8, 1, 9, 2, 7}
	h.grow(len(vals))
	for i, v := range vals {
		h.push(int32(i), v)
	}
	prev := math.Inf(-1)
	for h.len() > 0 {
		it := h.pop()
		if it.prio < prev {
			t.Fatalf("heap pop out of order: %v after %v", it.prio, prev)
		}
		prev = it.prio
	}
	h.push(1, 1)
	h.reset()
	if h.len() != 0 {
		t.Error("reset should empty the heap")
	}
}
