package core

import (
	"cmp"
	"context"
	"fmt"
	"slices"

	"surfknn/internal/geom"
	"surfknn/internal/index"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

// Shard primitives: the pieces of MR3 a scatter-gather coordinator drives
// over HTTP (see internal/shard). MR3's per-candidate lower/upper bounds
// depend only on the query point, the candidate and the terrain — never on
// the other candidates or their order (the ranker computes the k-th bound
// once per iteration from the candidate set, and fetched terrain is
// filtered per candidate region) — so any shard holding the full terrain
// can rank candidates from every tile: the other tiles answer the 2-D
// filters (KNN2D, Range2D) over their own object partitions, and the query
// tile's shard runs the whole query over its partition plus what they
// returned (MR3ShippedCtx). These helpers are coordination-path code, not
// the annotated hot path: they allocate their results.

// KNN2D runs MR3 step 1 alone: the k live objects nearest to q's (x,y)
// projection in ascending planar distance, read from one pinned epoch whose
// number is returned alongside. A database with no object store (or k < 1)
// returns an empty set at epoch 0.
func (db *TerrainDB) KNN2D(q geom.Vec2, k int) ([]workload.Object, uint64) {
	if db.store == nil || k < 1 {
		return nil, db.CurrentEpoch()
	}
	e := db.store.Pin()
	defer e.Release()
	items := e.KNNInto(q, k, nil, new(index.Scratch), nil)
	out := make([]workload.Object, 0, len(items))
	for _, it := range items {
		if o, ok := e.Object(it.ID); ok {
			out = append(out, o)
		}
	}
	return out, e.Seq()
}

// Range2D runs MR3 step 3 alone: every live object within planar distance
// radius of q, in index traversal order, read from one pinned epoch whose
// number is returned alongside.
func (db *TerrainDB) Range2D(q geom.Vec2, radius float64) ([]workload.Object, uint64) {
	if db.store == nil || radius < 0 {
		return nil, db.CurrentEpoch()
	}
	e := db.store.Pin()
	defer e.Release()
	items := e.WithinDistInto(q, radius, nil, nil)
	out := make([]workload.Object, 0, len(items))
	for _, it := range items {
		if o, ok := e.Object(it.ID); ok {
			out = append(out, o)
		}
	}
	return out, e.Seq()
}

// Shipped is the part of a sharded k-NN query's candidate set that lives
// on other tiles: the objects a coordinator gathered from them and ships
// to the shard that answers the query, whose own store holds only its
// tile's partition.
type Shipped struct {
	// Objs are the other tiles' candidates in any order; an id may repeat
	// (an object caught mid-move across an epoch-skewed fleet).
	Objs []workload.Object
	// Complete is the planar radius below which Objs hold every object of
	// the other tiles: the smallest k-th planar distance among the tiles
	// that returned k step-1 candidates, +Inf when none did (a tile that
	// returned fewer holds no more). Step 3 at a radius r < Complete can
	// only need objects Objs already carries. Strict, because objects at
	// exactly a tile's k-th distance may have been cut by the id tiebreak.
	Complete float64
	// Resume marks the second call of a query that did not settle: steps 1
	// and 2 are skipped and step 3 runs at Radius, with Objs holding the
	// other tiles' objects within it.
	Resume bool
	Radius float64
}

// MR3ShippedCtx answers one sharded k-NN query on the shard whose tile
// holds q, over its local partition plus ship. Steps 1 and 3 merge local
// and shipped candidates in canonical order (mergeShipped), so C1 and C2
// are exactly the sets the unsharded engine reads and the answer is
// bit-identical to its MR3Ctx. When the step-2 radius is not below
// ship.Complete the call stops after step 2 and reports settled false with
// that radius: the caller gathers the other tiles' objects within it and
// calls again with Resume set. The Result of an unsettled call carries the
// cost of steps 1 and 2 and no neighbours.
func (s *Session) MR3ShippedCtx(ctx context.Context, q mesh.SurfacePoint, k int, sched Schedule, opt Options, ship *Shipped) (res Result, radius float64, settled bool, err error) {
	if s.db.store == nil {
		return Result{}, 0, false, fmt.Errorf("core: no objects installed (call SetObjects)")
	}
	if k < 1 {
		return Result{}, 0, false, fmt.Errorf("core: k must be positive, got %d", k)
	}
	s.beginQuery(ctx, algoMR3)
	// beginQuery sizes scratch for the local store; the shipped objects
	// join every candidate set.
	s.ensureScratch(s.view.Len() + len(ship.Objs))
	ns, settled, err := s.mr3(q, k, sched, opt, ship)
	res, err = s.endQuery(algoMR3, k, ns, err)
	return res, s.step3Radius, settled, err
}

// mergeShipped appends the shipped objects within planar distance radius of
// q to local (one tile's candidates) and puts the union in canonical order:
// ascending planar distance, id tiebreak, a repeated id keeping its nearest
// copy. The predicate is the 2-D range query's own, so at step 3 a shipped
// object joins exactly when its tile's range query would have returned it.
func (s *Session) mergeShipped(q geom.Vec2, local, shipped []workload.Object, radius float64) []workload.Object {
	all := local
	for _, o := range shipped {
		if o.Point.XY().Dist(q) <= radius {
			all = append(all, o)
		}
	}
	d2 := func(o workload.Object) float64 {
		dx, dy := o.Point.Pos.X-q.X, o.Point.Pos.Y-q.Y
		return dx*dx + dy*dy
	}
	slices.SortFunc(all, func(a, b workload.Object) int {
		if c := cmp.Compare(d2(a), d2(b)); c != 0 {
			return c // exact float order, as index.SortByDist
		}
		return cmp.Compare(a.ID, b.ID)
	})
	if s.shipSeen == nil {
		s.shipSeen = make(map[int64]struct{}, len(all))
	}
	clear(s.shipSeen)
	out := all[:0]
	for _, o := range all {
		if _, dup := s.shipSeen[o.ID]; !dup {
			s.shipSeen[o.ID] = struct{}{}
			out = append(out, o)
		}
	}
	return out
}
