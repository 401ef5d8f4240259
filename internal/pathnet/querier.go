package pathnet

import (
	"math"

	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/mesh"
)

// Querier evaluates pathnet distances without mutating the shared network,
// so any number of queriers can run concurrently over one Pathnet. Instead
// of temporarily embedding the two surface points as graph vertices (the
// old Embed / trim cycle, which rewrote shared adjacency lists), the search
// treats them as virtual endpoints: the source is seeded onto the boundary
// points of its facet with the straight in-face leg as initial distance,
// and the target is evaluated lazily as each boundary point of its facet is
// settled. Both formulations compute exactly the same float sums, so the
// distances are bit-identical to the embedding approach.
//
// A Querier owns two reusable searches (graph.Workspace), so repeated
// queries allocate nothing. It is NOT safe for concurrent use — one Querier
// per goroutine.
type Querier struct {
	p  *Pathnet
	pt graph.Workspace // the point-to-point searches
	// relaxed counts successful arc relaxations across the querier's
	// lifetime, the shared-source search's included; sessions difference it
	// around a query to report the Dijkstra work that query performed.
	relaxed int64

	// The shared-source search (FromSource): one unrestricted Dijkstra from
	// src, advanced only as far as each target needs and kept — labels and
	// frontier — for the next one. It has its own workspace because the
	// point-to-point searches run between its calls.
	src    mesh.SurfacePoint
	srcOK  bool
	shared graph.Workspace
}

// Relaxations returns the lifetime count of successful arc relaxations.
// Callers wanting per-query numbers record the value before the query and
// subtract.
func (q *Querier) Relaxations() int64 { return q.relaxed }

// NewQuerier returns a query context over the pathnet. The searches are
// sized up front — the pathnet's vertex set is fixed after Build — so the
// query path never grows them.
func (p *Pathnet) NewQuerier() *Querier {
	q := &Querier{p: p}
	q.pt.Ensure(len(p.Pos))
	q.shared.Ensure(len(p.Pos))
	return q
}

// Distance returns the pathnet approximation of the surface distance
// between two surface points, and the 3-D polyline realising it
// (nil when unreachable).
func (q *Querier) Distance(a, b mesh.SurfacePoint) (float64, []geom.Vec3) {
	if a.Face == b.Face {
		return a.Pos.Dist(b.Pos), []geom.Vec3{a.Pos, b.Pos}
	}
	best, bestEnd := q.search(a, b, nil)
	if math.IsInf(best, 1) {
		return graph.Inf, nil
	}
	chain := graph.Path[int32](&q.pt, bestEnd, nil)
	pts := make([]geom.Vec3, 0, len(chain)+2)
	pts = append(pts, a.Pos)
	for _, v := range chain {
		pts = append(pts, q.p.Pos[v])
	}
	pts = append(pts, b.Pos)
	return best, pts
}

// DistanceValue is Distance without the polyline: the same search, the same
// float sums, but no path reconstruction — the form the warm query path uses
// (the settle loops only compare distances, so materialising the polyline
// per call would be pure allocation).
func (q *Querier) DistanceValue(a, b mesh.SurfacePoint) float64 {
	if a.Face == b.Face {
		return a.Pos.Dist(b.Pos)
	}
	d, _ := q.search(a, b, nil)
	return d
}

// DistanceWithin behaves like Distance but ignores network vertices whose
// (x,y) position falls outside region — the search-region restriction used
// by EA and by MR3's pathnet-level refinement. Distances can only grow
// (or become +Inf) under restriction.
func (q *Querier) DistanceWithin(a, b mesh.SurfacePoint, region geom.MBR) float64 {
	if a.Face == b.Face {
		return a.Pos.Dist(b.Pos)
	}
	d, _ := q.search(a, b, &region)
	return d
}

// search runs a Dijkstra between the virtual endpoints: distances are seeded
// onto a's facet boundary points (source legs), and each settled boundary
// point of b's facet proposes dist + target leg (settle). Once the
// frontier's minimum reaches the best proposal no shorter path can appear
// (legs are non-negative), matching the moment the old embedded target
// vertex would have been settled. The endpoints cannot usefully act as
// transit vertices: a facet's boundary points are pairwise linked, so by
// the triangle inequality a detour through an embedded point never beats
// the direct link. region, when non-nil, restricts the search to vertices
// inside it. Returns the distance and the settled target-facet vertex
// realising it (-1 when unreachable).
func (q *Querier) search(a, b mesh.SurfacePoint, region *geom.MBR) (float64, int32) {
	w, p := &q.pt, q.p
	w.Begin()
	for _, v := range p.FacePoints(a.Face) {
		if q.inside(v, region) {
			w.Relax(v, -1, a.Pos.Dist(p.Pos[v]))
		}
	}
	return q.settle(w, b, region, graph.Inf, graph.Inf)
}

// settle resumes w until its frontier's minimum reaches best or passes
// limit, each settled boundary point of b's facet proposing its distance
// plus the in-face leg to b; best starts as the caller's proposal. region,
// when non-nil, keeps the search inside it. Returns the best proposal and
// the boundary point realising it (-1 when the starting proposal stands).
func (q *Querier) settle(w *graph.Workspace, b mesh.SurfacePoint, region *geom.MBR, best, limit float64) (float64, int32) {
	p := q.p
	targets := p.FacePoints(b.Face)
	bestEnd := int32(-1)
	for m := w.Min(); m < best && m <= limit; m = w.Min() {
		v, d := w.Pop()
		for _, t := range targets {
			if t == v {
				if c := d + b.Pos.Dist(p.Pos[t]); c < best {
					best, bestEnd = c, v
				}
				break
			}
		}
		for _, arc := range p.G.Arcs(int(v)) {
			if nd := d + arc.W; nd < w.Dist(arc.To) && q.inside(arc.To, region) && w.Relax(arc.To, v, nd) {
				q.relaxed++
			}
		}
	}
	return best, bestEnd
}

// inside reports whether vertex v falls within the (optional) search
// region. A method rather than a per-call closure: the hot search loop
// calls it statically and nothing escapes.
func (q *Querier) inside(v int32, region *geom.MBR) bool {
	return region == nil || region.Contains(q.p.Pos[v].XY())
}

// FromSource returns DistanceValue(a, b) — the same bits — from a search
// that is shared by every call with the same a: the first call seeds an
// unrestricted Dijkstra at a, each call settles it only until b's distance
// is decided, and the labels and frontier stay for the next b. Ranking many
// targets against one query point this way costs one propagation out to the
// farthest target instead of one search per target.
//
// The distance is decided only as far as a caller comparing it with limit
// needs: when it is at most limit the result is exact; otherwise the search
// stops once its frontier passes limit and returns the frontier's minimum,
// a value above limit and at most the distance: the best proposal is above
// it, and any path not yet proposed runs through an unsettled label, no
// smaller than it. A later call, capped or not, resumes
// from there. limit = +Inf gives the exact distance always.
//
// The value is the same because a Dijkstra label, once settled, is the
// minimum over all paths of their left-to-right float sums — float addition
// of a non-negative weight is monotone and non-decreasing, which is all the
// label-setting argument needs — and so does not depend on the order in
// which vertices were popped or on how many other targets were served
// first. The answer for b is the minimum over b's facet boundary points of
// settled label plus in-face leg, exactly what search proposes; a boundary
// point still unsettled when the frontier's minimum reaches that answer
// has a label no smaller, so it cannot lower it.
//
// The shared search lives until the source changes or ForgetSource is
// called; its relaxations count into Relaxations.
func (q *Querier) FromSource(a, b mesh.SurfacePoint, limit float64) float64 {
	if a.Face == b.Face {
		return a.Pos.Dist(b.Pos)
	}
	w, p := &q.shared, q.p
	if !q.srcOK || q.src != a {
		w.Begin()
		q.src, q.srcOK = a, true
		for _, v := range p.FacePoints(a.Face) {
			w.Relax(v, -1, a.Pos.Dist(p.Pos[v]))
		}
	}
	// Labels are lengths of real paths even before they are settled, so the
	// ones b's facet already carries give a valid first proposal; settle
	// stops only once no unsettled label can undercut the best.
	best := graph.Inf
	for _, v := range p.FacePoints(b.Face) {
		if c := w.Dist(v) + b.Pos.Dist(p.Pos[v]); c < best {
			best = c
		}
	}
	best, _ = q.settle(w, b, nil, best, limit)
	return math.Min(best, w.Min())
}

// ForgetSource drops the shared-source search, so the next FromSource seeds
// afresh even from the same point. Sessions call it at query open: what one
// query costs then never depends on the query before it.
func (q *Querier) ForgetSource() { q.srcOK = false }
