package graph

// Workspace is the state of one Dijkstra search: a stamped label per vertex
// and the frontier, an indexed heap holding each queued vertex once, kept
// across runs so a warm search allocates nothing. Every shortest-path
// search of the engine runs on one — the pathnet's point-to-point and
// shared-source searches, the DMTM estimator's per-level shared searches,
// and the package functions — each writing its own settle loop over these
// primitives: Begin, Relax, Min, Pop, Dist/Prev and Path. Pops never depend
// on vertex IDs, only on the sequence of Relax and Pop calls and their
// distances (see minHeap). A search is resumable: stopping at any Min and
// settling on later leaves the same labels and pop sequence as one
// uninterrupted run. A Workspace is owned by a single goroutine; it is not
// safe for concurrent use.
//
// Instead of re-filling the labels before every run, Begin bumps an epoch
// and a label is meaningful only while its stamp carries the current one —
// an O(touched) logical clear; on wrap-around every stamp is zeroed once.
type Workspace struct {
	labels []label
	cur    uint32 // current epoch; 0 is never current
	h      minHeap
	dist   []float64 // Dijkstra's result, grown on first use
}

// label is one vertex's tentative distance and predecessor, current while
// its stamp equals the workspace's epoch.
type label struct {
	dist  float64
	prev  int32
	stamp uint32
}

// NewWorkspace returns a workspace able to search graphs of up to n
// vertices.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.Ensure(n)
	return w
}

// Ensure grows the workspace to handle graphs of up to n vertices. It never
// shrinks. Growth allocates and drops the current search; call it from
// setup code, not from a query loop.
func (w *Workspace) Ensure(n int) {
	if n > len(w.labels) {
		w.labels = make([]label, n)
	}
	w.h.grow(n)
}

// Begin starts a new search: every label reads +Inf and prev -1, and the
// frontier is empty.
func (w *Workspace) Begin() {
	w.cur++
	if w.cur == 0 { // wrapped: old stamps would look current
		for i := range w.labels {
			w.labels[i].stamp = 0
		}
		w.cur = 1
	}
	w.h.reset()
}

// Dist returns v's tentative distance, +Inf when this search has not
// reached v.
func (w *Workspace) Dist(v int32) float64 {
	if l := &w.labels[v]; l.stamp == w.cur {
		return l.dist
	}
	return Inf
}

// Prev returns the predecessor v was last relaxed from, -1 when this search
// has not reached v. A seed's predecessor is whatever Relax was given.
func (w *Workspace) Prev(v int32) int32 {
	if l := &w.labels[v]; l.stamp == w.cur {
		return l.prev
	}
	return -1
}

// Relax offers v the distance d via from. A lower d replaces v's label and
// queues v at d — lowering v in place when it is queued already — and Relax
// reports true; an equal or longer d changes nothing. Relax is too large to
// inline, so a hot loop calls it only for d < Dist(v).
func (w *Workspace) Relax(v, from int32, d float64) bool {
	l := &w.labels[v]
	reached := l.stamp == w.cur
	old := Inf
	if reached {
		old = l.dist
	}
	if d < old {
		*l = label{dist: d, prev: from, stamp: w.cur}
		// A label this search wrote keeps v's heap slot current: v is
		// queued unless it has been popped.
		if reached && w.h.pos[v] >= 0 {
			w.h.decrease(v, d)
		} else {
			w.h.push(v, d)
		}
		return true
	}
	return false
}

// Min returns the frontier's smallest priority — the distance of the next
// vertex Pop settles — or +Inf when the frontier is empty.
func (w *Workspace) Min() float64 {
	if w.h.len() == 0 {
		return Inf
	}
	return w.h.items[0].prio
}

// Pop settles the frontier's smallest entry and returns its vertex and
// distance; -1 and +Inf when the frontier is exhausted.
func (w *Workspace) Pop() (int32, float64) {
	if w.h.len() == 0 {
		return -1, Inf
	}
	it := w.h.pop()
	return it.v, it.prio
}

// Path writes v's predecessor chain into buf — the first vertex with a
// negative predecessor first, v last — growing buf when it is too short,
// and returns it.
func Path[T ~int | ~int32](w *Workspace, v int32, buf []T) []T {
	n := 0
	for u := v; u >= 0; u = w.Prev(u) {
		n++
	}
	if cap(buf) < n {
		buf = make([]T, n)
	}
	buf = buf[:n]
	for u, i := v, n-1; i >= 0; u, i = w.Prev(u), i-1 {
		buf[i] = T(u)
	}
	return buf
}

// search restarts the workspace at src over g.
func (w *Workspace) search(g *Graph, src int) {
	if g.NumVertices() > len(w.labels) {
		panic("graph: workspace too small for graph (call Ensure)")
	}
	w.Begin()
	w.Relax(int32(src), -1, 0)
}

// settle resumes the search over g until the frontier is exhausted or its
// minimum is no lower than dst's distance, which is then final; dst < 0
// settles every reachable vertex.
func (w *Workspace) settle(g *Graph, dst int32) {
	for {
		stop := Inf
		if dst >= 0 {
			stop = w.Dist(dst)
		}
		if !(w.Min() < stop) {
			return
		}
		v, d := w.Pop()
		for _, a := range g.arcsOf(v) {
			if nd := d + a.W; nd < w.Dist(a.To) {
				w.Relax(a.To, v, nd)
			}
		}
	}
}

// Dijkstra computes single-source shortest distances from src to every
// vertex of g. Unreachable vertices get Inf. The result aliases the
// workspace until its next Dijkstra.
func (w *Workspace) Dijkstra(g *Graph, src int) []float64 {
	w.search(g, src)
	w.settle(g, -1)
	n := g.NumVertices()
	if cap(w.dist) < n {
		w.dist = make([]float64, n)
	}
	dist := w.dist[:n]
	for i := range dist {
		dist[i] = w.Dist(int32(i))
	}
	return dist
}
