package multires

import (
	"surfknn/internal/graph"
	"surfknn/internal/mesh"
)

// sharedSearch is one level network's resumable, unrestricted Dijkstra from
// the current source: seeded at the source's embedding, advanced only as far
// as each target needs, and kept — labels and frontier — for the next
// target.
type sharedSearch struct {
	w   graph.Workspace // one vertex per tree node
	src mesh.SurfacePoint
	ok  bool // src is seeded
}

// ForgetSource drops every level's shared search, so the next UpperBound
// seeds afresh even from the same point. Sessions call it at query open:
// what one query costs then never depends on the query before it.
func (e *Estimator) ForgetSource() {
	for i := range e.shared {
		e.shared[i].ok = false
	}
}

// seed restarts sh at a's embedding, each arc relaxed from the virtual
// source.
func (e *Estimator) seed(sh *sharedSearch, m *mesh.Mesh, a mesh.SurfacePoint, ln *levelNet) {
	sh.w.Begin()
	sh.src, sh.ok = a, true
	var src embedding
	e.embed(&src, m, a, ln)
	for i := 0; i < src.n; i++ {
		sh.w.Relax(int32(src.anc[i]), -1, src.w[i])
	}
}

// resume settles sh's vertices while the frontier's minimum is below best,
// the least of dst's ancestors' label plus embed weight, lowering best as
// those ancestors settle, and returns it. Labels are lengths of real paths
// even before they are settled, so best starts as a valid proposal.
func (e *Estimator) resume(sh *sharedSearch, ln *levelNet, dst *embedding, best float64) float64 {
	w := &sh.w
	var settled int64
	for w.Min() < best {
		vi, d := w.Pop()
		v := NodeID(vi)
		settled++
		for _, arc := range ln.arcs[ln.off[v]:ln.off[v+1]] {
			if nd := d + arc.w; nd < w.Dist(int32(arc.to)) {
				w.Relax(int32(arc.to), vi, nd)
			}
		}
		for i := 0; i < dst.n; i++ {
			if dst.anc[i] == v {
				if c := d + dst.w[i]; c < best {
					best = c
				}
			}
		}
	}
	e.SharedSettled += settled
	return best
}
