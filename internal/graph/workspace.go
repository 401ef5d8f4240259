package graph

import "math"

// Workspace is the reusable scratch state for Dijkstra runs: distance,
// predecessor and visit-epoch arrays plus the binary heap, all retained
// across calls so a warm run allocates nothing. A Workspace is owned by a
// single goroutine (core.Session holds one per session); it is not safe
// for concurrent use.
//
// Instead of re-filling the distance array with +Inf before every run, each
// run bumps an epoch counter and a distance entry is only meaningful when
// its stamp matches the current epoch — an O(touched) logical clear. The
// full-distance variant, Dijkstra, materialises Inf into untouched entries
// before returning, so callers see exactly the slice the allocating API
// produced.
//
// Returned slices alias the workspace and are valid until the next call on
// it.
type Workspace struct {
	dist  []float64
	prev  []int32
	stamp []uint32 // visit epoch per vertex; == cur means dist/prev valid
	cur   uint32

	tstamp []uint32 // target-set epoch per vertex (DijkstraMultiTarget)
	tcur   uint32

	h    minHeap
	path []int
}

// NewWorkspace returns a workspace able to run over graphs of up to n
// vertices.
func NewWorkspace(n int) *Workspace {
	w := &Workspace{}
	w.Ensure(n)
	return w
}

// Ensure grows the workspace to handle graphs of up to n vertices. It never
// shrinks. Growth allocates; call it from setup code (session begin), not
// from the query loop.
func (w *Workspace) Ensure(n int) {
	if n <= len(w.dist) {
		return
	}
	w.dist = make([]float64, n)
	w.prev = make([]int32, n)
	w.stamp = make([]uint32, n)
	w.tstamp = make([]uint32, n)
	w.path = make([]int, n)
}

// begin starts a new run: bumps the visit epoch (clearing the stamp array
// on wrap-around) and resets the heap.
func (w *Workspace) begin(g *Graph) {
	if g.NumVertices() > len(w.dist) {
		panic("graph: workspace too small for graph (call Ensure)")
	}
	w.cur++
	if w.cur == 0 { // wrapped: every stale stamp would look current
		for i := range w.stamp {
			w.stamp[i] = 0
		}
		w.cur = 1
	}
	w.h.reset()
}

// distAt reads the current run's distance of v (Inf when untouched).
func (w *Workspace) distAt(v int32) float64 {
	if w.stamp[v] == w.cur {
		return w.dist[v]
	}
	return Inf
}

// setDist stamps v with distance d (prev untouched).
func (w *Workspace) setDist(v int32, d float64) {
	w.dist[v] = d
	w.prev[v] = -1
	w.stamp[v] = w.cur
}

// materialize writes Inf into every entry the run did not touch and
// returns the full distance slice for g.
func (w *Workspace) materialize(g *Graph) []float64 {
	n := g.NumVertices()
	dist := w.dist[:n]
	for i := range dist {
		if w.stamp[i] != w.cur {
			dist[i] = Inf
		}
	}
	return dist
}

// Dijkstra computes single-source shortest distances from src to every
// vertex of g. Unreachable vertices get Inf. The result aliases the
// workspace.
//
//sklint:hotpath
func (w *Workspace) Dijkstra(g *Graph, src int) []float64 {
	w.begin(g)
	w.setDist(int32(src), 0)
	w.h.push(int32(src), 0)
	for w.h.len() > 0 {
		it := w.h.pop()
		if it.prio > w.distAt(it.v) {
			continue // stale entry
		}
		for _, a := range g.arcsOf(it.v) {
			nd := it.prio + a.W
			if nd < w.distAt(a.To) {
				w.setDist(a.To, nd)
				w.h.push(a.To, nd)
			}
		}
	}
	return w.materialize(g)
}

// DijkstraTarget computes the shortest distance from src to dst, stopping
// as soon as dst is settled, and returns the path (vertex sequence from src
// to dst). dist is Inf and path nil when dst is unreachable. The path
// aliases the workspace.
//
//sklint:hotpath
func (w *Workspace) DijkstraTarget(g *Graph, src, dst int) (float64, []int) {
	w.begin(g)
	w.setDist(int32(src), 0)
	w.h.push(int32(src), 0)
	for w.h.len() > 0 {
		it := w.h.pop()
		if it.prio > w.distAt(it.v) {
			continue
		}
		if int(it.v) == dst {
			break
		}
		for _, a := range g.arcsOf(it.v) {
			nd := it.prio + a.W
			if nd < w.distAt(a.To) {
				w.dist[a.To] = nd
				w.prev[a.To] = it.v
				w.stamp[a.To] = w.cur
				w.h.push(a.To, nd)
			}
		}
	}
	d := w.distAt(int32(dst))
	if math.IsInf(d, 1) {
		return Inf, nil
	}
	return d, w.reconstruct(src, dst)
}

// DijkstraMultiTarget computes shortest distances from src to each target,
// stopping once every target has been settled. out must be parallel to
// targets (the legacy wrapper allocates it; warm callers pass a reused
// buffer); unreachable targets get Inf.
//
// The historical implementation tracked the outstanding target set in a
// per-call map[int32]int; the workspace replaces it with the tstamp
// epoch-stamped slice.
//
//sklint:hotpath
func (w *Workspace) DijkstraMultiTarget(g *Graph, src int, targets []int, out []float64) []float64 {
	if len(out) != len(targets) {
		panic("graph: out buffer not parallel to targets")
	}
	w.begin(g)
	w.tcur++
	if w.tcur == 0 {
		for i := range w.tstamp {
			w.tstamp[i] = 0
		}
		w.tcur = 1
	}
	remaining := 0
	for _, t := range targets {
		if w.tstamp[t] != w.tcur {
			w.tstamp[t] = w.tcur
			remaining++
		}
	}
	w.setDist(int32(src), 0)
	w.h.push(int32(src), 0)
	for w.h.len() > 0 && remaining > 0 {
		it := w.h.pop()
		if it.prio > w.distAt(it.v) {
			continue
		}
		if w.tstamp[it.v] == w.tcur {
			w.tstamp[it.v] = w.tcur - 1 // settled: drop from the target set
			remaining--
		}
		for _, a := range g.arcsOf(it.v) {
			nd := it.prio + a.W
			if nd < w.distAt(a.To) {
				w.setDist(a.To, nd)
				w.h.push(a.To, nd)
			}
		}
	}
	for i, t := range targets {
		out[i] = w.distAt(int32(t))
	}
	return out
}

// reconstruct rebuilds the src→dst path from the prev chain into the
// workspace path buffer: one counting walk to size it exactly, one filling
// walk — no append growth.
func (w *Workspace) reconstruct(src, dst int) []int {
	n := 0
	for v := int32(dst); v != -1; v = w.prevAt(v) {
		n++
		if int(v) == src {
			break
		}
	}
	path := w.path[:n]
	for v, i := int32(dst), n-1; i >= 0; v, i = w.prevAt(v), i-1 {
		path[i] = int(v)
	}
	return path
}

// prevAt reads the current run's predecessor of v (-1 when untouched).
func (w *Workspace) prevAt(v int32) int32 {
	if w.stamp[v] == w.cur {
		return w.prev[v]
	}
	return -1
}
