package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// refDijkstra is the straight textbook implementation the workspace must
// match bit for bit: Inf-filled arrays allocated per call, a lazy-deletion
// binary heap. A settled label is the minimum over all paths of their
// left-to-right float sums whatever the pop order, so the heaps' different
// tie orders leave the same bits.
func refDijkstra(g *Graph, src int) []float64 {
	dist := make([]float64, g.NumVertices())
	for i := range dist {
		dist[i] = Inf
	}
	var h lazyHeap
	dist[src] = 0
	h.push(int32(src), 0)
	for len(h.items) > 0 {
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

func TestTargetVariantsMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 40+rng.Intn(100), 200)
		if trial%2 == 0 {
			g.Finalize()
		}
		n := g.NumVertices()
		src, dst := rng.Intn(n), rng.Intn(n)

		full := refDijkstra(g, src)
		d, path := DijkstraTarget(g, src, dst)
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
		got := DijkstraMultiTarget(g, src, targets)
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
	path := make([]int32, 0, g.NumVertices())
	// One warm-up pass lets the heap slab reach its high-water mark.
	w.Dijkstra(g, 0)
	src := 0
	if n := testing.AllocsPerRun(50, func() {
		w.Dijkstra(g, src)
		w.search(g, src)
		w.settle(g, 400)
		path = Path(w, 400, path)
		src = (src + 13) % g.NumVertices()
	}); n != 0 {
		t.Fatalf("warm Workspace runs allocate %.1f times per run, want 0", n)
	}
}

// gridGraph is a side×side grid with unit weights: every vertex off the
// axes through the source is reached by many equal-length paths, so ties
// are the norm.
func gridGraph(side int) *Graph {
	g := New(side * side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			if c+1 < side {
				g.AddEdge(r*side+c, r*side+c+1, 1)
			}
			if r+1 < side {
				g.AddEdge(r*side+c, (r+1)*side+c, 1)
			}
		}
	}
	return g
}

// run seeds w at src and settles g in stages: until Min() reaches each
// stop in turn, then dry. It returns the settled vertices in pop order.
func run(w *Workspace, g *Graph, src int, stops []float64) []int32 {
	w.Begin()
	w.Relax(int32(src), -1, 0)
	var pops []int32
	for _, stop := range append(stops, Inf) {
		for w.Min() < stop {
			v, d := w.Pop()
			pops = append(pops, v)
			for _, a := range g.Arcs(int(v)) {
				w.Relax(a.To, v, d+a.W)
			}
		}
	}
	return pops
}

// TestWorkspaceEpochWrap runs searches across the epoch counter's
// wrap-around: labels stamped before it — by the first search of the
// workspace's life, whose epoch the wrap reuses — must read as untouched,
// and every search must still match the reference.
func TestWorkspaceEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, g := range []*Graph{randomGraph(rng, 300, 600), gridGraph(17)} {
		n := g.NumVertices()
		w := NewWorkspace(n)
		run(w, g, 0, nil)
		w.cur = ^uint32(0) - 3 // the fourth Begin wraps, back to the first run's epoch
		for i := 0; i < 6; i++ {
			w.Begin()
			for v := int32(0); v < int32(n); v++ {
				if !math.IsInf(w.Dist(v), 1) || w.Prev(v) != -1 {
					t.Fatalf("run %d (epoch %#x): vertex %d reads dist %v prev %d after Begin",
						i, w.cur, v, w.Dist(v), w.Prev(v))
				}
			}
			src := rng.Intn(n)
			run(w, g, src, nil)
			want := refDijkstra(g, src)
			for v := range want {
				if math.Float64bits(w.Dist(int32(v))) != math.Float64bits(want[v]) {
					t.Fatalf("run %d: dist[%d] = %v want %v", i, v, w.Dist(int32(v)), want[v])
				}
			}
		}
		if w.cur > 1<<8 {
			t.Fatalf("epoch %#x: the counter never wrapped", w.cur)
		}
	}
}

// TestWorkspaceResume pins the property the shared-source searches rely
// on: a search advanced in stages, stopping whenever Min() reaches the next
// stop, then run dry, leaves the same labels and pops in the same order as
// one uninterrupted run.
func TestWorkspaceResume(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	whole, staged := NewWorkspace(0), NewWorkspace(0)
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 40+rng.Intn(200), 400)
		if trial%2 == 1 {
			g = gridGraph(5 + rng.Intn(12))
		}
		n := g.NumVertices()
		whole.Ensure(n)
		staged.Ensure(n)
		src := rng.Intn(n)
		want := run(whole, g, src, nil)
		far := whole.Dist(want[len(want)-1])
		stops := make([]float64, 1+rng.Intn(6))
		for i := range stops {
			stops[i] = rng.Float64() * far
		}
		stops[0] = whole.Dist(want[rng.Intn(len(want))]) // a stop on a settled distance
		sort.Float64s(stops)
		got := run(staged, g, src, stops)
		if len(got) != len(want) {
			t.Fatalf("trial %d: staged run popped %d vertices, whole run %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: pop %d is %d staged, %d whole (stops %v)", trial, i, got[i], want[i], stops)
			}
		}
		for v := int32(0); v < int32(n); v++ {
			if math.Float64bits(staged.Dist(v)) != math.Float64bits(whole.Dist(v)) ||
				staged.Prev(v) != whole.Prev(v) {
				t.Fatalf("trial %d: vertex %d label (%v, %d) staged, (%v, %d) whole", trial, v,
					staged.Dist(v), staged.Prev(v), whole.Dist(v), whole.Prev(v))
			}
		}
	}
}

// TestWorkspaceDecreaseKey lowers queued vertices in place: a vertex
// lowered twice while queued pops once, at its last distance, and Min never
// reports a superseded priority.
func TestWorkspaceDecreaseKey(t *testing.T) {
	const n = 40
	w := NewWorkspace(n)
	w.Begin()
	for v := int32(0); v < n; v++ { // deep enough for sifts across levels
		w.Relax(v, -1, float64(100+v))
	}
	for _, v := range []int32{37, 21, 37} {
		d := w.Dist(v) - 90
		if !w.Relax(v, 0, d) {
			t.Fatalf("Relax(%d, %v) did not lower %v", v, d, w.Dist(v))
		}
		if m := w.Min(); m != d {
			t.Fatalf("after lowering %d to %v, Min %v", v, d, m)
		}
	}
	var pops []int32
	last := math.Inf(-1)
	for w.Min() < Inf {
		m := w.Min()
		v, d := w.Pop()
		if d != m || d != w.Dist(v) || d < last {
			t.Fatalf("pop %d: (%d, %v) with Min %v, label %v, previous pop at %v", len(pops), v, d, m, w.Dist(v), last)
		}
		pops, last = append(pops, v), d
	}
	if len(pops) != n {
		t.Fatalf("%d pops for %d queued vertices", len(pops), n)
	}
	if pops[0] != 37 || pops[1] != 21 || w.Dist(37) != 137-180 {
		t.Fatalf("first pops %v, dist(37) %v; want 37 at -43, then 21", pops[:2], w.Dist(37))
	}
	if v, d := w.Pop(); v != -1 || !math.IsInf(d, 1) {
		t.Fatalf("Pop on an empty frontier = (%d, %v)", v, d)
	}
}
