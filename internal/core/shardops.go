package core

import (
	"context"
	"fmt"

	"surfknn/internal/geom"
	"surfknn/internal/index"
	"surfknn/internal/mesh"
	"surfknn/internal/stats"
	"surfknn/internal/workload"
)

// Shard primitives: the decomposed MR3 steps a scatter-gather coordinator
// drives over HTTP (see internal/shard). MR3's per-candidate lower/upper
// bounds depend only on the query point, the candidate and the terrain —
// never on the other candidates or their order (the ranker computes the
// k-th bound once per iteration from the candidate set, and fetched terrain
// is filtered per candidate region) — so the four steps split cleanly:
// the 2-D filters (steps 1 and 3) run per shard over each shard's own
// object partition, and the rankings (steps 2 and 4) run on any one shard
// holding the full terrain, over candidates gathered from all of them.
// These helpers are coordination-path code, not the annotated hot path:
// they allocate their results.

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

// RankCandidatesCtx runs MR3 step 2 or 4 alone: it ranks the supplied
// candidates by surface distance to q with the multiresolution machinery,
// exactly as the corresponding phase inside MR3Ctx would — tighten=true is
// the C1 ranking (tighten the k-th upper bound), tighten=false the C2
// ranking (settle the k-set). The candidates are injected by the caller
// rather than read from this database's object store, so a shard holding
// only its own object partition can rank a candidate set gathered across
// every shard; only the terrain structures are read locally. The Result's
// Epoch is the local store's pinned epoch (informational — the candidates
// carry their own provenance).
func (s *Session) RankCandidatesCtx(ctx context.Context, q mesh.SurfacePoint, objs []workload.Object, k int, sched Schedule, opt Options, tighten bool) (Result, error) {
	if k < 1 {
		return Result{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	s.beginQuery(ctx, algoRank)
	// beginQuery sizes scratch for the local store; the injected candidate
	// set can be larger (it spans every shard's partition).
	s.ensureScratch(len(objs))
	phase := stats.PhaseRankC2
	if tighten {
		phase = stats.PhaseRankC1
	}
	s.beginPhase(phase)
	ns, err := s.rank(q, objs, k, sched, opt, tighten)
	return s.endQuery(algoRank, k, ns, err)
}
