package multires

import (
	"math"

	"surfknn/internal/graph"
	"surfknn/internal/mesh"
)

// sharedSearch is one level network's resumable, unrestricted Dijkstra from
// the current source: seeded at the source's embedding with every arc of the
// level admitted, advanced only as far as each target needs, and kept —
// labels, tie flags and frontier — for the next target. UpperBound reads a
// candidate's bound off it when a certificate proves the restricted search
// would return the same bits and path (the argument is at UpperBound).
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

// seed restarts sh at a's unrestricted embedding: embed's rule with every
// arc admitted, so each distinct corner ancestor with an arc at the level,
// first corner winning, relaxed from the virtual source.
func (e *Estimator) seed(sh *sharedSearch, m *mesh.Mesh, a mesh.SurfacePoint, ln *levelNet) {
	sh.w.Begin()
	sh.src, sh.ok = a, true
	var src embedding
	e.embed(&src, m, a, ln, nil)
	for i := 0; i < src.n; i++ {
		sh.w.Relax(int32(src.anc[i]), int32(fromSource), src.w[i])
	}
}

// fromShared answers the estimation of a to b under ad off sh, or reports
// false when it cannot certify that the restricted search would give the
// same bound and path. It resumes sh until every label b's embedding reads
// is final — the frontier's minimum strictly above the best — then certifies
// when (i) exactly one of b's ancestors attains the best, (ii) no vertex of
// that ancestor's predecessor chain carries a tie flag and (iii) ad admits
// every arc of the chain (for a chain of one vertex: one arc at it, which is
// embed's presence test).
func (e *Estimator) fromShared(sh *sharedSearch, m *mesh.Mesh, a, b mesh.SurfacePoint, ln *levelNet, ad *admission) (UpperEstimate, bool) {
	if !sh.ok || sh.src != a {
		e.seed(sh, m, a, ln)
	}
	var dst embedding
	e.embed(&dst, m, b, ln, nil)
	best := math.Inf(1)
	for i := 0; i < dst.n; i++ {
		if c := sh.w.Dist(int32(dst.anc[i])) + dst.w[i]; c < best {
			best = c
		}
	}
	if dst.n > 0 {
		e.resume(sh, ln, &dst, best)
	}

	// (i): unsettled labels are above best, so only settled, final labels
	// can attain it.
	best, attain := math.Inf(1), NoNode
	for i := 0; i < dst.n; i++ {
		c := sh.w.Dist(int32(dst.anc[i])) + dst.w[i]
		switch {
		case c < best:
			best, attain = c, dst.anc[i]
		//lint:ignore float-eq a second ancestor with the same float sum is a tie the restricted search may break the other way
		case c == best:
			attain = NoNode
		}
	}
	if math.IsInf(best, 1) {
		// The restricted network is a subgraph: disconnected here, there too.
		e.Certified++
		return UpperEstimate{UB: graph.Inf}, true
	}
	if attain == NoNode {
		return UpperEstimate{}, false
	}
	// (ii) and (iii), walking the chain back to the virtual source.
	w, xy := &sh.w, e.t.xy
	n := 0
	for v := int32(attain); ; {
		if w.Tie(v) {
			return UpperEstimate{}, false
		}
		n++
		p := w.Prev(v)
		if p == int32(fromSource) {
			break
		}
		if !ad.admits(xy[p], xy[v]) {
			return UpperEstimate{}, false
		}
		v = p
	}
	if n == 1 && !e.present(attain, ln, ad) {
		return UpperEstimate{}, false
	}
	e.Certified++
	e.path = graph.Path(w, int32(attain), e.path)
	return UpperEstimate{UB: best, Path: e.path}, true
}

// resume settles sh's vertices until the frontier's minimum is strictly
// above the best of dst's ancestors' label plus embed weight, lowering best
// as those ancestors settle. Labels are lengths of real paths even before
// they are settled, so best starts as a valid proposal; a label matched
// exactly from another predecessor sets the vertex's tie flag, a lower one
// clears it.
func (e *Estimator) resume(sh *sharedSearch, ln *levelNet, dst *embedding, best float64) {
	w := &sh.w
	var settled int64
	for w.Min() <= best {
		vi, d := w.Pop()
		if vi < 0 { // exhausted with best still +Inf
			break
		}
		v := NodeID(vi)
		settled++
		for _, arc := range ln.arcs[ln.off[v]:ln.off[v+1]] {
			if nd := d + arc.w; nd <= w.Dist(int32(arc.to)) {
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
}

// present reports whether node v has an arc at ln that ad admits; a nil ad
// admits every arc.
func (e *Estimator) present(v NodeID, ln *levelNet, ad *admission) bool {
	arcs := ln.arcs[ln.off[v]:ln.off[v+1]]
	if ad == nil {
		return len(arcs) > 0
	}
	xy := e.t.xy
	for _, a := range arcs {
		e.Scanned++
		if ad.admits(xy[v], xy[a.to]) {
			e.Admitted++
			return true
		}
	}
	return false
}
