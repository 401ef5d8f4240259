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
// A Querier owns reusable scratch (distance/predecessor arrays stamped by
// query epoch, and a frontier heap), so repeated queries allocate nothing.
// It is NOT safe for concurrent use — one Querier per goroutine.
type Querier struct {
	p     *Pathnet
	dist  []float64
	prev  []int32
	stamp []uint32
	cur   uint32
	pq    *graph.Frontier
	// relaxed counts successful arc relaxations across the querier's
	// lifetime, the shared-source search's included; sessions difference it
	// around a query to report the Dijkstra work that query performed.
	relaxed int64

	// The shared-source search (FromSource): one unrestricted Dijkstra from
	// src, advanced only as far as each target needs and kept — labels and
	// frontier — for the next one. It has its own arrays because the
	// point-to-point searches above run between its calls.
	src    mesh.SurfacePoint
	srcOK  bool
	sdist  []float64
	sstamp []uint32
	scur   uint32
	sfront *graph.Frontier
}

// Relaxations returns the lifetime count of successful arc relaxations.
// Callers wanting per-query numbers record the value before the query and
// subtract.
func (q *Querier) Relaxations() int64 { return q.relaxed }

// NewQuerier returns a query context over the pathnet. The scratch arrays
// are sized up front — the pathnet's vertex set is fixed after Build — so
// the query path never grows them.
func (p *Pathnet) NewQuerier() *Querier {
	n := len(p.Pos)
	return &Querier{
		p:      p,
		dist:   make([]float64, n),
		prev:   make([]int32, n),
		stamp:  make([]uint32, n),
		pq:     graph.NewFrontier(),
		sdist:  make([]float64, n),
		sstamp: make([]uint32, n),
		sfront: graph.NewFrontier(),
	}
}

// begin opens a new query epoch: entries stamped by earlier queries become
// logically Inf without clearing the arrays.
func (q *Querier) begin() {
	q.cur = q.nextEpoch(q.stamp, q.cur)
	q.pq.Reset()
}

// nextEpoch returns the epoch after cur for the given stamp array.
func (q *Querier) nextEpoch(stamp []uint32, cur uint32) uint32 {
	if len(stamp) < len(q.p.Pos) {
		// Embed grew the pathnet after this querier was created; queriers
		// are for the immutable shared network only.
		panic("pathnet: querier older than the pathnet's last Embed")
	}
	cur++
	if cur == 0 { // epoch counter wrapped: old stamps are ambiguous, clear
		for i := range stamp {
			stamp[i] = 0
		}
		cur = 1
	}
	return cur
}

func (q *Querier) distAt(v int32) float64 {
	if q.stamp[v] != q.cur {
		return graph.Inf
	}
	return q.dist[v]
}

func (q *Querier) setDist(v int32, d float64, from int32) {
	q.stamp[v] = q.cur
	q.dist[v] = d
	q.prev[v] = from
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
	var rev []int32
	for v := bestEnd; v != -1; v = q.prev[v] {
		rev = append(rev, v)
	}
	pts := make([]geom.Vec3, 0, len(rev)+2)
	pts = append(pts, a.Pos)
	for i := len(rev) - 1; i >= 0; i-- {
		pts = append(pts, q.p.Pos[rev[i]])
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
// point of b's facet proposes dist + target leg. Once the popped priority
// reaches the best proposal no shorter path can appear (legs are
// non-negative), matching the moment the old embedded target vertex would
// have been settled. The endpoints cannot usefully act as transit vertices:
// a facet's boundary points are pairwise linked, so by the triangle
// inequality a detour through an embedded point never beats the direct
// link. region, when non-nil, restricts the search to vertices inside it.
// Returns the distance and the settled target-facet vertex realising it
// (-1 when unreachable).
//
//sklint:hotpath
func (q *Querier) search(a, b mesh.SurfacePoint, region *geom.MBR) (float64, int32) {
	q.begin()
	p := q.p
	for _, w := range p.FacePoints(a.Face) {
		if !q.inside(w, region) {
			continue
		}
		if d := a.Pos.Dist(p.Pos[w]); d < q.distAt(w) {
			q.setDist(w, d, -1)
			q.pq.Push(w, d)
		}
	}
	targets := p.FacePoints(b.Face)
	best := graph.Inf
	bestEnd := int32(-1)
	for q.pq.Len() > 0 {
		v, d := q.pq.Pop()
		if d > q.distAt(v) {
			continue // stale frontier entry
		}
		if d >= best {
			break
		}
		for _, w := range targets {
			if w == v {
				if c := d + b.Pos.Dist(p.Pos[w]); c < best {
					best, bestEnd = c, v
				}
				break
			}
		}
		for _, arc := range p.G.Arcs(int(v)) {
			if !q.inside(arc.To, region) {
				continue
			}
			if nd := d + arc.W; nd < q.distAt(arc.To) {
				q.relaxed++
				q.setDist(arc.To, nd, v)
				q.pq.Push(arc.To, nd)
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
//
//sklint:hotpath
func (q *Querier) FromSource(a, b mesh.SurfacePoint) float64 {
	if a.Face == b.Face {
		return a.Pos.Dist(b.Pos)
	}
	p := q.p
	if !q.srcOK || q.src != a {
		q.scur = q.nextEpoch(q.sstamp, q.scur)
		q.sfront.Reset()
		q.src, q.srcOK = a, true
		for _, w := range p.FacePoints(a.Face) {
			if d := a.Pos.Dist(p.Pos[w]); d < q.srcDist(w) {
				q.sstamp[w], q.sdist[w] = q.scur, d
				q.sfront.Push(w, d)
			}
		}
	}
	// Labels are lengths of real paths even before they are settled, so the
	// ones b's facet already carries give a valid first proposal; the loop
	// below stops only once no unsettled label can undercut the best.
	targets := p.FacePoints(b.Face)
	best := graph.Inf
	for _, w := range targets {
		if c := q.srcDist(w) + b.Pos.Dist(p.Pos[w]); c < best {
			best = c
		}
	}
	for q.sfront.Len() > 0 && q.sfront.MinPrio() < best {
		v, d := q.sfront.Pop()
		if d > q.sdist[v] {
			continue // stale frontier entry
		}
		for _, w := range targets {
			if w == v {
				if c := d + b.Pos.Dist(p.Pos[w]); c < best {
					best = c
				}
				break
			}
		}
		for _, arc := range p.G.Arcs(int(v)) {
			if nd := d + arc.W; nd < q.srcDist(arc.To) {
				q.relaxed++
				q.sstamp[arc.To], q.sdist[arc.To] = q.scur, nd
				q.sfront.Push(arc.To, nd)
			}
		}
	}
	return best
}

// srcDist is distAt for the shared-source search's labels.
func (q *Querier) srcDist(v int32) float64 {
	if q.sstamp[v] != q.scur {
		return graph.Inf
	}
	return q.sdist[v]
}

// ForgetSource drops the shared-source search, so the next FromSource seeds
// afresh even from the same point. Sessions call it at query open: what one
// query costs then never depends on the query before it.
func (q *Querier) ForgetSource() { q.srcOK = false }
