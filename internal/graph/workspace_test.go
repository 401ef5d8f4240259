package graph

import (
	"math"
	"math/rand"
	"testing"
)

// refDijkstra is the straight textbook implementation the workspace must
// match bit for bit: Inf-filled arrays allocated per call, identical heap
// discipline.
func refDijkstra(g *Graph, src int) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	var h minHeap
	dist[src] = 0
	h.push(int32(src), 0)
	for h.len() > 0 {
		it := h.pop()
		if it.prio > dist[it.v] {
			continue
		}
		for _, a := range g.Arcs(int(it.v)) {
			nd := it.prio + a.W
			if nd < dist[a.To] {
				dist[a.To] = nd
				h.push(a.To, nd)
			}
		}
	}
	return dist
}

// randomGraph builds a connected-ish random geometric-ish graph. Weights
// are irregular floats so any traversal-order difference shows up in the
// low bits of the sums.
func randomGraph(rng *rand.Rand, n, extraEdges int) *Graph {
	g := New(n)
	for v := 1; v < n; v++ {
		g.AddEdge(v, rng.Intn(v), 0.1+rng.Float64())
	}
	for i := 0; i < extraEdges; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			g.AddEdge(u, v, 0.1+rng.Float64()*3)
		}
	}
	return g
}

func TestFinalizePreservesArcs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 200, 400)
	want := make([][]Arc, g.NumVertices())
	for u := range want {
		want[u] = append([]Arc(nil), g.Arcs(u)...)
	}
	g.Finalize()
	if !g.Finalized() {
		t.Fatal("Finalize did not mark the graph finalized")
	}
	for u := range want {
		got := g.Arcs(u)
		if len(got) != len(want[u]) {
			t.Fatalf("vertex %d: arc count %d != %d after Finalize", u, len(got), len(want[u]))
		}
		for i := range got {
			if got[i] != want[u][i] {
				t.Fatalf("vertex %d arc %d: %v != %v after Finalize", u, i, got[i], want[u][i])
			}
		}
	}
	// Mutation must transparently unpack and keep order.
	v := g.AddVertex()
	g.AddEdge(v, 0, 1.5)
	if g.Finalized() {
		t.Fatal("mutation left the graph finalized")
	}
	first := g.Arcs(0)
	if first[len(first)-1] != (Arc{To: int32(v), W: 1.5}) {
		t.Fatalf("post-definalize append mis-ordered: %v", first)
	}
	for i, a := range first[:len(first)-1] {
		if a != want[0][i] {
			t.Fatalf("vertex 0 arc %d changed across definalize: %v != %v", i, a, want[0][i])
		}
	}
}

func TestWorkspaceDijkstraMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	w := NewWorkspace(0)
	for trial := 0; trial < 30; trial++ {
		g := randomGraph(rng, 50+rng.Intn(150), 300)
		if trial%2 == 1 {
			g.Finalize()
		}
		w.Ensure(g.NumVertices())
		for rep := 0; rep < 3; rep++ { // warm reuse must not change results
			src := rng.Intn(g.NumVertices())
			want := refDijkstra(g, src)
			got := w.Dijkstra(g, src)
			for v := range want {
				if math.Float64bits(want[v]) != math.Float64bits(got[v]) {
					t.Fatalf("trial %d rep %d: dist[%d] = %x want %x", trial, rep, v,
						math.Float64bits(got[v]), math.Float64bits(want[v]))
				}
			}
		}
	}
}

func TestWorkspaceVariantsMatchPackageAPI(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	w := NewWorkspace(0)
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 40+rng.Intn(100), 200)
		if trial%2 == 0 {
			g.Finalize()
		}
		w.Ensure(g.NumVertices())
		n := g.NumVertices()
		src, dst := rng.Intn(n), rng.Intn(n)

		full := refDijkstra(g, src)
		d, path := w.DijkstraTarget(g, src, dst)
		if math.Float64bits(d) != math.Float64bits(full[dst]) {
			t.Fatalf("target: dist = %v want %v", d, full[dst])
		}
		if len(path) == 0 || path[0] != src || path[len(path)-1] != dst {
			t.Fatalf("target: bad path endpoints %v (src %d dst %d)", path, src, dst)
		}
		var sum float64
		for i := 0; i+1 < len(path); i++ {
			best := Inf
			for _, a := range g.Arcs(path[i]) {
				if int(a.To) == path[i+1] && a.W < best {
					best = a.W
				}
			}
			sum += best
		}
		if math.Abs(sum-d) > 1e-9*(1+d) {
			t.Fatalf("target: path length %v != dist %v", sum, d)
		}

		targets := make([]int, 8)
		for i := range targets {
			targets[i] = rng.Intn(n)
		}
		targets[3] = targets[1] // duplicate targets must both be reported
		out := make([]float64, len(targets))
		got := w.DijkstraMultiTarget(g, src, targets, out)
		for i, tv := range targets {
			if math.Float64bits(got[i]) != math.Float64bits(full[tv]) {
				t.Fatalf("multi: out[%d] = %v want %v", i, got[i], full[tv])
			}
		}
	}
}

func TestWorkspaceWarmRunsDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 500, 1200)
	g.Finalize()
	w := NewWorkspace(g.NumVertices())
	targets := []int{7, 99, 311, 42}
	out := make([]float64, len(targets))
	// One warm-up pass lets the heap slab reach its high-water mark.
	w.Dijkstra(g, 0)
	_, _ = w.DijkstraTarget(g, 2, 400)
	w.DijkstraMultiTarget(g, 3, targets, out)
	src := 0
	if n := testing.AllocsPerRun(50, func() {
		w.Dijkstra(g, src)
		_, _ = w.DijkstraTarget(g, src, 400)
		w.DijkstraMultiTarget(g, src, targets, out)
		src = (src + 13) % g.NumVertices()
	}); n != 0 {
		t.Fatalf("warm Workspace runs allocate %.1f times per run, want 0", n)
	}
}
