package server

// Shard-fabric endpoints: the decomposed MR3 primitives under /v1/shard/*
// that a scatter-gather coordinator (internal/shard) drives against this
// process when it serves one tile of a sharded deployment. The routes are
// mounted unconditionally — a server that never sees a coordinator simply
// never receives them — and speak the api.Shard* wire types.
//
// Admission: the 2-D primitives (knn2d, range2d) are cheap index reads and
// bypass the admission semaphore like the object-update routes; the ranking
// primitives (rank, ea, range) run the full multiresolution machinery and
// are admitted exactly like public queries. Shard responses are never
// cached: the coordinator's public-facing responses are what benefit from
// caching, and it caches per assembled answer, not per fragment.

import (
	"context"
	"math"
	"net/http"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/server/api"
	"surfknn/internal/server/front"
	"surfknn/internal/sklang/skexec"
	"surfknn/internal/workload"
)

// tuning resolves a request's schedule number and wire options onto the
// engine's values.
func tuning(sched int, o *api.Options) (core.Schedule, core.Options, error) {
	if err := front.CheckTuning(sched, o); err != nil {
		return 0, core.Options{}, err
	}
	s, _ := skexec.Schedule(sched) // vetted above
	opt, err := skexec.CoreOptions(o)
	return s, opt, err
}

// candidatesReply maps an object slice onto the wire, carrying the exact
// surface point including the mesh face (see api.Candidate).
func candidatesReply(objs []workload.Object, epoch uint64) front.Reply {
	out := make([]api.Candidate, len(objs))
	for i, o := range objs {
		out[i] = api.Candidate{
			ID:   o.ID,
			X:    o.Point.Pos.X,
			Y:    o.Point.Pos.Y,
			Z:    o.Point.Pos.Z,
			Face: int32(o.Point.Face),
		}
	}
	return front.Reply{Value: api.CandidatesResponse{Epoch: epoch, Candidates: out}, Epoch: epoch}
}

// candidateObjects validates and maps wire candidates back onto engine
// objects; a face id outside the local mesh is a 400.
func (s *Server) candidateObjects(cands []api.Candidate) ([]workload.Object, error) {
	nf := s.db.Mesh.NumFaces()
	objs := make([]workload.Object, len(cands))
	for i, c := range cands {
		if c.Face < 0 || int(c.Face) >= nf {
			return nil, front.BadRequest("candidates[%d]: face %d outside mesh (%d faces)", i, c.Face, nf)
		}
		objs[i] = workload.Object{
			ID: c.ID,
			Point: mesh.SurfacePoint{
				Pos:  geom.Vec3{X: c.X, Y: c.Y, Z: c.Z},
				Face: mesh.FaceID(c.Face),
			},
		}
	}
	return objs, nil
}

// rankOnSession runs one ranking primitive under admission control on a
// pooled session and maps its result onto the wire before the session (whose
// scratch the result aliases) is released.
func (s *Server) rankOnSession(r *http.Request, timeout api.Duration, run func(context.Context, *core.Session) (core.Result, error)) (front.Reply, error) {
	ctx, cancel := s.requestContext(r.Context(), time.Duration(timeout))
	defer cancel()
	if err := s.admit(ctx); err != nil {
		return front.Reply{}, err
	}
	defer s.adm.release()
	sess := s.db.AcquireSession()
	defer s.db.Release(sess)
	res, err := run(ctx, sess)
	if err != nil {
		return front.Reply{}, err
	}
	wire := toResponse(res)
	return front.Reply{
		Value: api.ShardResult{Epoch: res.Epoch, Neighbors: wire.Neighbors, Cost: wire.Cost},
		Epoch: res.Epoch,
	}, nil
}

// --- POST /v1/shard/knn2d ---

func (s *Server) handleShardKNN2D(r *http.Request) (front.Reply, error) {
	var req api.ShardKNN2DRequest
	if err := front.Decode(r, &req); err != nil {
		return front.Reply{}, err
	}
	if err := front.CheckK(req.K); err != nil {
		return front.Reply{}, err
	}
	return candidatesReply(s.db.KNN2D(geom.Vec2{X: req.X, Y: req.Y}, req.K)), nil
}

// --- POST /v1/shard/range2d ---

func (s *Server) handleShardRange2D(r *http.Request) (front.Reply, error) {
	var req api.ShardRange2DRequest
	if err := front.Decode(r, &req); err != nil {
		return front.Reply{}, err
	}
	// Radius zero is legal here (unlike the public range route): the
	// coordinator forwards MR3's k-th upper bound verbatim, and a query
	// point sitting exactly on an object yields a zero bound.
	if !(req.Radius >= 0) || math.IsInf(req.Radius, 1) {
		return front.Reply{}, front.BadRequest("radius must be a non-negative finite distance, got %g", req.Radius)
	}
	return candidatesReply(s.db.Range2D(geom.Vec2{X: req.X, Y: req.Y}, req.Radius)), nil
}

// --- POST /v1/shard/rank ---

func (s *Server) handleShardRank(r *http.Request) (front.Reply, error) {
	var req api.ShardRankRequest
	if err := front.Decode(r, &req); err != nil {
		return front.Reply{}, err
	}
	if err := front.CheckK(req.K); err != nil {
		return front.Reply{}, err
	}
	sched, opt, err := tuning(req.Sched, req.Options)
	if err != nil {
		return front.Reply{}, err
	}
	q, err := s.surfacePoint(req.X, req.Y)
	if err != nil {
		return front.Reply{}, err
	}
	objs, err := s.candidateObjects(req.Candidates)
	if err != nil {
		return front.Reply{}, err
	}
	return s.rankOnSession(r, req.Timeout, func(ctx context.Context, sess *core.Session) (core.Result, error) {
		return sess.RankCandidatesCtx(ctx, q, objs, req.K, sched, opt, req.Tighten)
	})
}

// --- POST /v1/shard/ea ---

func (s *Server) handleShardEA(r *http.Request) (front.Reply, error) {
	var req api.ShardEARequest
	if err := front.Decode(r, &req); err != nil {
		return front.Reply{}, err
	}
	if err := front.CheckK(req.K); err != nil {
		return front.Reply{}, err
	}
	q, err := s.surfacePoint(req.X, req.Y)
	if err != nil {
		return front.Reply{}, err
	}
	// Clamp k to this shard's live object count: a shard owning fewer than
	// k objects contributes them all, and the coordinator merges per-shard
	// top-k lists into the global top-k.
	k := req.K
	if n := len(s.db.Objects()); k > n {
		k = n
	}
	if k == 0 {
		epoch := s.db.CurrentEpoch()
		return front.Reply{Value: api.ShardResult{Epoch: epoch, Neighbors: []api.Neighbor{}}, Epoch: epoch}, nil
	}
	return s.rankOnSession(r, req.Timeout, func(ctx context.Context, sess *core.Session) (core.Result, error) {
		return sess.EACtx(ctx, q, k)
	})
}

// --- POST /v1/shard/range ---

func (s *Server) handleShardRange(r *http.Request) (front.Reply, error) {
	var req api.ShardRangeRequest
	if err := front.Decode(r, &req); err != nil {
		return front.Reply{}, err
	}
	if err := front.CheckRadius(req.Radius); err != nil {
		return front.Reply{}, err
	}
	sched, opt, err := tuning(req.Sched, req.Options)
	if err != nil {
		return front.Reply{}, err
	}
	q, err := s.surfacePoint(req.X, req.Y)
	if err != nil {
		return front.Reply{}, err
	}
	return s.rankOnSession(r, req.Timeout, func(ctx context.Context, sess *core.Session) (core.Result, error) {
		return sess.SurfaceRangeCtx(ctx, q, req.Radius, sched, opt)
	})
}

// --- POST /v1/shard/objects ---

// handleShardObjects applies one coordinator-replayed logical update at the
// coordinator-assigned epoch (see objstore.ApplyAt). Empty batches are
// legal — a shard owning none of the touched objects still publishes, so
// every shard's epoch advances in lockstep — and replays are idempotent.
func (s *Server) handleShardObjects(r *http.Request) (front.Reply, error) {
	var req api.ShardObjectsRequest
	if err := front.Decode(r, &req); err != nil {
		return front.Reply{}, err
	}
	if req.Epoch == 0 {
		return front.Reply{}, front.BadRequest("epoch must be positive")
	}
	if len(req.Objects) > front.MaxUpdateBatch || len(req.DeleteIDs) > front.MaxUpdateBatch {
		return front.Reply{}, front.BadRequest("batch exceeds the limit of %d", front.MaxUpdateBatch)
	}
	store := s.db.ObjectStore()
	if store == nil {
		return front.Reply{}, errNoStore
	}
	batch, err := s.upsertBatch(req.Objects)
	if err != nil {
		return front.Reply{}, err
	}
	epoch, applied := store.ApplyAt(batch, req.DeleteIDs, req.Epoch)
	return front.Reply{Value: api.ShardObjectsResponse{Epoch: epoch, Applied: applied}, Epoch: epoch}, nil
}
