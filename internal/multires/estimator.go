package multires

import (
	"math"

	"surfknn/internal/mesh"
)

// Estimator runs MR3's upper-bound estimations (§4.2.1) in place on the
// tree's level networks: one resumable, unrestricted Dijkstra per level from
// the current source (shared.go), advanced only as far as each target needs,
// answers every target of that source. The bound is the target's distance
// over the whole level network, bit for bit what Tree.UpperBound(…,
// IncludeAll) gives (argument at UpperBound, pinned by
// TestEstimatorMatchesNetwork and FuzzSharedUpperBound).
//
// An Estimator is owned by a single goroutine.
type Estimator struct {
	t *Tree

	// shared is one resumable unrestricted search per materialised level,
	// parallel to the tree's levels (shared.go).
	shared []sharedSearch

	// SharedSettled counts the vertices the shared searches settled over
	// every UpperBound call, read by tests and benchmarks.
	SharedSettled int64
}

// NewEstimator returns an estimator over a materialised tree, every buffer
// sized to what the immutable tree bounds.
func NewEstimator(t *Tree) *Estimator {
	if t.order == nil && len(t.Edges) > 0 {
		panic("multires: NewEstimator before Tree.Materialize")
	}
	e := &Estimator{t: t, shared: make([]sharedSearch, len(t.levels))}
	for i := range e.shared {
		e.shared[i].w.Ensure(len(t.Nodes))
	}
	return e
}

// level returns the tree's materialised network of time tm and its shared
// search. No caller asks for a time Materialize was not given, so one it
// was not is a panic.
func (e *Estimator) level(tm int32) (*levelNet, *sharedSearch) {
	for i := range e.t.levels {
		if e.t.levels[i].time == tm {
			return &e.t.levels[i], &e.shared[i]
		}
	}
	panic("multires: upper bound at a time with no materialised level network")
}

// embedding is a surface point's link into the network, Network.Embed's:
// one arc per distinct active corner ancestor present in the network,
// weighted by the on-facet leg plus the ancestor's Gather bound, in corner
// order.
type embedding struct {
	n   int
	anc [3]NodeID
	w   [3]float64
}

// embed fills em for sp. An ancestor is present iff it has an arc at the
// level — the extracted network's vertices are the endpoints of its edges.
func (e *Estimator) embed(em *embedding, m *mesh.Mesh, sp mesh.SurfacePoint, ln *levelNet) {
	em.n = 0
corners:
	for _, corner := range sp.Corners(m) {
		anc := ln.anc[corner]
		for i := 0; i < em.n; i++ {
			if em.anc[i] == anc {
				continue corners
			}
		}
		if ln.off[anc] < ln.off[anc+1] {
			em.anc[em.n] = anc
			em.w[em.n] = sp.Pos.Dist(m.Verts[corner]) + e.t.Nodes[anc].Gather
			em.n++
		}
	}
}

// UpperBound estimates an upper bound on the surface distance from a to b:
// their distance over the DDM network of collapse time tm (a time
// Materialize was given), +Inf when the network does not connect them. Every
// edge weight is the length of a real original-surface path, and so is each
// embedding arc, so the bound is one.
//
// The result is the bits Tree.UpperBound(m, a, b, tm, IncludeAll) gives —
// extract the whole level network, embed both points, a target-stopped
// Dijkstra — read off the level's shared search from a:
//
//   - fl(x + w) is monotone and non-decreasing in x for w >= 0, so a settled
//     Dijkstra label is the minimum over all paths of their left-to-right
//     float sums. It depends neither on arc order nor on pop order, nor on
//     which targets the shared search served before this one.
//   - The shared search's seeds are a's embedding arcs, Embed's: each
//     distinct corner ancestor with an arc at the level, first corner's
//     weight winning. b's distance is the minimum over b's embedding of
//     ancestor label plus arc weight, which is what the extracted network's
//     target vertex settles at. A path through either embedded point is
//     never shorter than the same path without the detour.
//   - resume stops once the frontier's minimum is no lower than the best of
//     those sums: an ancestor still unsettled has a label no lower, so it
//     cannot lower the best.
//
// Key invariant 10 in DESIGN.md.
func (e *Estimator) UpperBound(m *mesh.Mesh, a, b mesh.SurfacePoint, tm int32) float64 {
	ln, sh := e.level(tm)
	// Same-face shortcut: the straight on-facet segment is a valid path.
	if a.Face == b.Face {
		return a.Pos.Dist(b.Pos)
	}
	if !sh.ok || sh.src != a {
		e.seed(sh, m, a, ln)
	}
	var dst embedding
	e.embed(&dst, m, b, ln)
	best := math.Inf(1)
	for i := 0; i < dst.n; i++ {
		if c := sh.w.Dist(int32(dst.anc[i])) + dst.w[i]; c < best {
			best = c
		}
	}
	if dst.n == 0 {
		return best
	}
	return e.resume(sh, ln, &dst, best)
}
