package multires

import (
	"math"

	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/mesh"
)

// Estimator runs MR3's per-candidate upper-bound estimations (§4.2.1) in
// place on the tree's level networks: a target-stopped Dijkstra that tests
// the candidate's search-region filter on the arcs of the vertices it
// settles — a few hundred of a network of thousands — instead of filtering a
// fetched batch and packing the survivors into a private graph first. Bounds
// and paths are bit-identical to that pipeline (argument at UpperBound,
// pinned by TestEstimatorMatchesNetwork). Most estimations skip even that
// search: one resumable, unrestricted search per level from the source
// answers them when a certificate shows the bits and path are the same
// (shared.go).
//
// An Estimator is owned by a single goroutine. Returned paths alias it and
// are valid until its next UpperBound call.
type Estimator struct {
	t *Tree

	// The restricted search over tree nodes, the virtual target the last
	// vertex, and its path buffer.
	w    graph.Workspace
	path []NodeID

	// shared is one resumable unrestricted search per materialised level,
	// parallel to the tree's levels (shared.go).
	shared []sharedSearch

	// Work counters over every UpperBound call, read by tests and
	// benchmarks: arcs looked at, arcs that passed the admission test (asked
	// only of arcs that would relax), vertices the restricted searches
	// settled; estimations read off a shared search, vertices the shared
	// searches settled.
	Scanned, Admitted, Settled int64
	Certified, SharedSettled   int64
}

// fromSource is the predecessor of a vertex relaxed by the virtual source.
const fromSource NodeID = -2

// NewEstimator returns an estimator over a materialised tree, every buffer
// sized to what the immutable tree bounds: a path visits an active node at
// most once, and no time has more of them than time 0's NumLeaves.
func NewEstimator(t *Tree) *Estimator {
	if t.order == nil && len(t.Edges) > 0 {
		panic("multires: NewEstimator before Tree.Materialize")
	}
	e := &Estimator{
		t:      t,
		path:   make([]NodeID, 0, t.NumLeaves),
		shared: make([]sharedSearch, len(t.levels)),
	}
	e.w.Ensure(len(t.Nodes) + 1)
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

// admission is the per-estimation edge filter: an edge is in the network iff
// its rectangle meets box — region with each side pulled in to the common
// bounds of refined, one four-way test standing for "meets region and the
// bounds" (the sides may cross: an edge can reach region at one end and the
// bounds at the other) — and, when refined is not empty, meets one non-empty
// refined rectangle.
type admission struct {
	box     geom.MBR
	refined []geom.MBR
}

// admits tests the edge between nodes at p and q. The rectangle is
// Tree.EdgeMBR's, the two RepPos ordered per axis by min and max (−0 and
// +0 may come out in either order; they compare equal). A NaN coordinate
// makes both ends of its axis NaN, which fails every comparison it enters,
// so such an edge is dropped here as the fetch dropped its empty rectangle.
func (ad *admission) admits(p, q geom.Vec2) bool {
	x0, x1 := min(p.X, q.X), max(p.X, q.X)
	y0, y1 := min(p.Y, q.Y), max(p.Y, q.Y)
	if !(x0 <= ad.box.MaxX && ad.box.MinX <= x1 && y0 <= ad.box.MaxY && ad.box.MinY <= y1) {
		return false
	}
	if len(ad.refined) == 0 {
		return true
	}
	for j := range ad.refined {
		m := &ad.refined[j]
		if m.MinX <= x1 && x0 <= m.MaxX && m.MinY <= y1 && y0 <= m.MaxY && !m.IsEmpty() {
			return true
		}
	}
	return false
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

// embed fills em for sp. An ancestor is present iff one of its arcs is
// admitted — the network's vertices were the endpoints of its kept edges; a
// nil ad admits every arc (the shared search's unrestricted embedding).
func (e *Estimator) embed(em *embedding, m *mesh.Mesh, sp mesh.SurfacePoint, ln *levelNet, ad *admission) bool {
	em.n = 0
corners:
	for _, corner := range sp.Corners(m) {
		anc := ln.anc[corner]
		for i := 0; i < em.n; i++ {
			if em.anc[i] == anc {
				continue corners
			}
		}
		if e.present(anc, ln, ad) {
			em.anc[em.n] = anc
			em.w[em.n] = sp.Pos.Dist(m.Verts[corner]) + e.t.Nodes[anc].Gather
			em.n++
		}
	}
	return em.n > 0
}

// UpperBound estimates an upper bound on the surface distance from a to b
// over the DDM network of collapse time tm (a time Materialize was given)
// restricted to the edges whose rectangle meets region and — when refined is
// not empty — one of the refined rectangles (Fig. 6(b): the descendants of
// the previous path). UB is +Inf when the restriction disconnects the points;
// the caller widens it. The returned Path aliases the estimator.
//
// The result is the bits NetworkFromEdgeIDs(tm, fetched ids, that filter) →
// Embed(a), Embed(b) → DijkstraTarget gave, fetch being the clustered
// store's read of any region that contains this one:
//
//   - The heap orders on priority alone and never looks at a vertex id, so
//     numbering vertices by NodeID instead of first-seen index cannot change
//     a pop. What fixes the pops is the push sequence, i.e. each settled
//     vertex's arc order.
//   - That order was batch order — storage order restricted to the kept
//     edges — with the embed arcs after the network arcs. The level network
//     lists each node's arcs in storage order (levelNet.build), and testing
//     the filter arc by arc keeps the same subsequence; an arc that would
//     not relax is skipped before the test, which changes no push.
//   - A fetched batch held the records alive at tm whose non-empty
//     rectangle met the fetch region. region lies inside it (a candidate's
//     region is one of those its group's region is the union of), so
//     "alive, meets region" implies both the record- and the page-level
//     test of the fetch: the admitted arcs are the kept edges. An empty
//     region fetched and kept nothing, so neither point embedded.
//   - The source popped first and relaxed its embed arcs in corner order:
//     pushing them onto the empty heap is the same heap. A settled vertex's
//     arc back to the source (distance 0) never relaxed. Its arc to the
//     target came after its network arcs, as the pack placed it, and is
//     relaxed there.
//   - Path is the interior of the predecessor chain as NodeIDs, which is
//     what NodePath mapped the graph path to.
//
// Most estimations do not run that restricted search: they read the bound
// and path off the level's shared search, one unrestricted Dijkstra from a
// resumed only until b's labels are final (fromShared), whenever a
// certificate proves the restricted search would return the same bits and
// the same path:
//
//   - The restricted network is a subgraph of the unrestricted one: its
//     arcs are the admitted ones, its embed arcs those of the present
//     ancestors with the same weights (the first corner's, whichever
//     ancestors are present). fl(x + w) is monotone and non-decreasing in
//     x, so every Dijkstra label is the minimum over paths of their
//     left-to-right float sums: restricted labels are no lower.
//   - If exactly one of b's ancestors attains the unrestricted best, and
//     the arcs of its predecessor chain are admitted (a chain of one vertex
//     needs an admitted arc at it, embed's presence test), the chain lies in
//     the restricted network, so the restricted minimum at every chain
//     vertex and at the target is the same float.
//   - A different restricted predecessor of equal value would be an
//     unrestricted one too, since its label can only be lower there; its
//     label is at most the best, so the shared search settled it before
//     stopping and its relaxation set the tie flag of the vertex it matched.
//     A chain without tie flags therefore leaves the restricted search no
//     other tie to break, and its predecessors are the same.
//
// Otherwise — several ancestors attain the best, a flag on the chain, an arc
// off it refused — the restricted search runs as above. Key invariant 10 in
// DESIGN.md; FuzzSharedUpperBound and TestEstimatorMatchesNetwork pin it.
func (e *Estimator) UpperBound(m *mesh.Mesh, a, b mesh.SurfacePoint, tm int32, region geom.MBR, refined []geom.MBR) UpperEstimate {
	ln, sh := e.level(tm)
	// Same-face shortcut: the straight on-facet segment is a valid path.
	if a.Face == b.Face {
		return UpperEstimate{UB: a.Pos.Dist(b.Pos)}
	}
	if region.IsEmpty() {
		return UpperEstimate{UB: graph.Inf}
	}
	ad := admission{box: region, refined: refined}
	if len(refined) > 0 {
		u := geom.EmptyMBR()
		for _, r := range refined {
			u = u.Union(r) // skips an empty rectangle
		}
		ad.box.MinX, ad.box.MinY = math.Max(ad.box.MinX, u.MinX), math.Max(ad.box.MinY, u.MinY)
		ad.box.MaxX, ad.box.MaxY = math.Min(ad.box.MaxX, u.MaxX), math.Min(ad.box.MaxY, u.MaxY)
	}
	if est, ok := e.fromShared(sh, m, a, b, ln, &ad); ok {
		return est
	}
	var src, dst embedding
	okA := e.embed(&src, m, a, ln, &ad)
	okB := e.embed(&dst, m, b, ln, &ad)
	if !okA || !okB {
		return UpperEstimate{UB: graph.Inf}
	}

	w, xy := &e.w, e.t.xy
	target := int32(len(e.t.Nodes))
	w.Begin()
	for i := 0; i < src.n; i++ {
		w.Relax(int32(src.anc[i]), int32(fromSource), src.w[i])
	}
	var scanned, admitted, settled int64
	for {
		vi, d := w.Pop()
		if vi < 0 || vi == target {
			break
		}
		v := NodeID(vi)
		settled++
		pv := xy[v]
		arcs := ln.arcs[ln.off[v]:ln.off[v+1]]
		scanned += int64(len(arcs))
		for _, arc := range arcs {
			if nd := d + arc.w; nd < w.Dist(int32(arc.to)) && ad.admits(pv, xy[arc.to]) {
				admitted++
				w.Relax(int32(arc.to), vi, nd)
			}
		}
		for i := 0; i < dst.n; i++ {
			if dst.anc[i] == v {
				w.Relax(target, vi, d+dst.w[i])
			}
		}
	}
	e.Scanned += scanned
	e.Admitted += admitted
	e.Settled += settled

	ub := w.Dist(target)
	if math.IsInf(ub, 1) {
		return UpperEstimate{UB: graph.Inf}
	}
	e.path = graph.Path(w, w.Prev(target), e.path)
	return UpperEstimate{UB: ub, Path: e.path}
}
