package server

import (
	"context"
	"errors"
	"fmt"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/server/api"
	"surfknn/internal/server/front"
	"surfknn/internal/sklang"
	"surfknn/internal/sklang/skexec"
	"surfknn/internal/workload"
)

// The server's front.Executor: the engine behind the shared HTTP front.
// Every query route reaches this file as a compiled plan — result cache →
// admission → pooled session → skexec.Run — so an answer is bit-identical
// whichever route spelled the query.

// Catalog snapshots what the planner needs to know about this server's
// data: the immutable terrain's shape (measured once, in New) and the
// current epoch's object count.
func (s *Server) Catalog() sklang.Catalog {
	cat := s.terrain
	if store := s.db.ObjectStore(); store != nil {
		cat.Objects = store.Current().Len()
	}
	return cat
}

// epochKey scopes a cache key to one object-store epoch. Object updates
// therefore never purge the cache: entries computed against a superseded
// epoch simply become unreachable (lookups use the current epoch) and age
// out of the LRU naturally.
func epochKey(epoch uint64, suffix string) string {
	return fmt.Sprintf("e=%d|%s", epoch, suffix)
}

// Execute answers one compiled plan.
func (s *Server) Execute(ctx context.Context, req front.Request) (front.Reply, error) {
	plan := req.Plan
	// select/range answers are cacheable under (epoch, key); distance
	// depends only on the immutable terrain, so its key is deliberately
	// epoch-free and stays reachable across any number of object updates.
	// The epoch is read once: a hit is stamped with the epoch it was looked
	// up under, never a later one.
	epoch := s.db.CurrentEpoch()
	key := func(at uint64) string {
		if plan.Algo == sklang.AlgoDistance {
			return req.Key
		}
		return epochKey(at, req.Key)
	}
	if req.Key != "" {
		if body, ok := s.cache.get(key(epoch)); ok {
			return front.Reply{Body: body, Epoch: epoch, Cache: "hit"}, nil
		}
	}

	ctx, cancel := s.requestContext(ctx, req.Timeout)
	defer cancel()
	if err := s.admit(ctx); err != nil {
		return front.Reply{}, err
	}
	defer s.adm.release()

	if plan.Algo == sklang.AlgoContinuous && !req.Explain {
		return s.subscribe(ctx, req)
	}
	sess := s.db.AcquireSession()
	defer s.db.Release(sess) // after Encode: the outcome aliases session scratch
	out, err := skexec.Run(ctx, sess, plan)
	if err != nil {
		if errors.Is(err, skexec.ErrOffTerrain) {
			return front.Reply{}, front.NotFound("%v", err)
		}
		return front.Reply{}, err
	}
	ans := front.Answer{Epoch: out.Result.Epoch}
	ans.Query.Result = toResponse(out.Result)
	if plan.Algo == sklang.AlgoDistance {
		ans.Query.Distance = &api.DistanceResponse{
			LB:       api.Float(out.Distance.LB),
			UB:       api.Float(out.Distance.UB),
			Accuracy: out.Distance.Accuracy, Iterations: out.Distance.Iterations,
		}
	}
	if req.Explain {
		ans.Plan = plan.Root.Wire()
	}
	body, err := req.Encode(&ans)
	if err != nil {
		return front.Reply{}, err
	}
	rep := front.Reply{Body: body, Epoch: ans.Epoch}
	if req.Key != "" {
		// Cache under the epoch the query actually pinned (an update may
		// have landed between the lookup above and session checkout).
		s.cache.put(key(ans.Epoch), body)
		rep.Cache = "miss"
	}
	return rep, nil
}

// subscribe registers a SUBSCRIBE plan as a live subscription with the
// continuous monitor, which runs the MR3 evaluation on its own pooled
// session.
func (s *Server) subscribe(ctx context.Context, req front.Request) (front.Reply, error) {
	if s.mon == nil {
		return front.Reply{}, errNoMonitor
	}
	plan := req.Plan
	sched, opt, err := tuning(plan.Sched, plan.Options)
	if err != nil {
		return front.Reply{}, err
	}
	q, err := s.surfacePoint(plan.X, plan.Y)
	if err != nil {
		return front.Reply{}, err
	}
	id, res, sr, err := s.mon.Subscribe(ctx, q, plan.K, sched, opt)
	if err != nil {
		return front.Reply{}, err
	}
	sub := subscribeResponse(id, res, sr)
	ans := front.Answer{Epoch: res.Epoch}
	ans.Query.Result, ans.Query.Subscription = sub.Result, &sub
	body, err := req.Encode(&ans)
	return front.Reply{Body: body, Epoch: res.Epoch, SafeRegion: "miss"}, err
}

// admit claims an execution slot or reports why not as a typed error.
// Callers must release on nil.
func (s *Server) admit(ctx context.Context) error {
	err := s.adm.acquire(ctx)
	switch {
	case err == nil:
		return nil
	case errors.Is(err, errSaturated):
		return front.Saturated(s.adm.retryAfterSeconds(),
			"server saturated (%d executing, %d queued); retry later",
			s.cfg.MaxInFlight, s.cfg.QueueDepth)
	default: // request context ended while queued
		return fmt.Errorf("request ended while queued: %w", err)
	}
}

// surfacePoint lifts (x,y) onto the terrain; a point outside the surface
// extent is a 404 — the addressed surface location does not exist.
func (s *Server) surfacePoint(x, y float64) (mesh.SurfacePoint, error) {
	q, err := s.db.SurfacePointAt(geom.Vec2{X: x, Y: y})
	if err != nil {
		return q, front.NotFound("point (%g, %g) is not on the terrain: %v", x, y, err)
	}
	return q, nil
}

// toResponse maps an engine result onto the wire.
func toResponse(res core.Result) api.Result {
	out := api.Result{
		Neighbors: make([]api.Neighbor, len(res.Neighbors)),
		Cost: api.Cost{
			Pages:     res.Cost.Pages(),
			CPUUs:     res.Cost.CPU.Microseconds(),
			ElapsedUs: res.Cost.Elapsed.Microseconds(),
		},
	}
	for i, n := range res.Neighbors {
		out.Neighbors[i] = api.Neighbor{
			ID: n.Object.ID,
			X:  n.Object.Point.Pos.X,
			Y:  n.Object.Point.Pos.Y,
			Z:  n.Object.Point.Pos.Z,
			LB: api.Float(n.LB),
			UB: api.Float(n.UB),
		}
	}
	return out
}

// Object updates go through the database's versioned object store
// (internal/objstore), so each accepted batch publishes one new epoch
// atomically; queries in flight keep reading the epoch they pinned and are
// never torn by an update. Updates bypass admission control deliberately:
// the semaphore bounds CPU-heavy query execution, while an update is a
// short critical section in the store, and shedding writers behind a queue
// of slow queries would invert the service's priorities — updates are what
// keep query answers fresh.

var errNoStore = front.Internal("database has no object store installed")

// Upsert applies one batch upsert as one epoch.
func (s *Server) Upsert(_ context.Context, req api.UpsertRequest) (api.UpdateResponse, error) {
	store := s.db.ObjectStore()
	if store == nil {
		return api.UpdateResponse{}, errNoStore
	}
	batch, err := s.upsertBatch(req.Objects)
	if err != nil {
		return api.UpdateResponse{}, err
	}
	return api.UpdateResponse{Epoch: store.Upsert(batch), Count: len(batch)}, nil
}

// upsertBatch lifts a wire upsert batch onto the terrain. Unlike a query
// point, an off-terrain object position is a 400, not a 404: the request
// is asking to create state that cannot exist, not addressing state that
// does not.
func (s *Server) upsertBatch(objs []api.UpsertObject) ([]workload.Object, error) {
	batch := make([]workload.Object, len(objs))
	for i, o := range objs {
		if o.ID == nil {
			return nil, front.BadRequest("objects[%d]: missing id", i)
		}
		p, err := s.db.SurfacePointAt(geom.Vec2{X: o.X, Y: o.Y})
		if err != nil {
			return nil, front.BadRequest("objects[%d]: position (%g, %g) is not on the terrain: %v", i, o.X, o.Y, err)
		}
		batch[i] = workload.Object{ID: *o.ID, Point: p}
	}
	return batch, nil
}

// Delete removes one batch of objects as one epoch. Deleting an id that is
// not live is not an error; the response counts it as missing.
func (s *Server) Delete(_ context.Context, req api.DeleteRequest) (api.DeleteResponse, error) {
	store := s.db.ObjectStore()
	if store == nil {
		return api.DeleteResponse{}, errNoStore
	}
	distinct := make(map[int64]struct{}, len(req.IDs))
	for _, id := range req.IDs {
		distinct[id] = struct{}{}
	}
	epoch, deleted := store.Delete(req.IDs)
	return api.DeleteResponse{Epoch: epoch, Deleted: deleted, Missing: len(distinct) - deleted}, nil
}

// Healthz reports liveness, the loaded snapshot's shape and provenance, and
// the shard identity when this process serves one tile of a sharded
// deployment.
func (s *Server) Healthz(context.Context) (api.Healthz, error) {
	return api.Healthz{
		Status:        "ok",
		Vertices:      s.db.Mesh.NumVerts(),
		Faces:         s.db.Mesh.NumFaces(),
		Objects:       len(s.db.Objects()),
		Epoch:         s.db.CurrentEpoch(),
		InFlight:      s.stats.InFlight.Value(),
		CacheEntries:  s.cache.len(),
		FormatVersion: s.db.FormatVersion(),
		ShardID:       s.cfg.ShardID,
	}, nil
}

// requestContext derives the query's controlling context: the
// client-supplied timeout (clamped to MaxTimeout) or the server default,
// layered over the request context so a disconnected client also cancels
// the query.
func (s *Server) requestContext(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultTimeout
	if timeout > 0 {
		d = timeout
		if d > s.cfg.MaxTimeout {
			d = s.cfg.MaxTimeout
		}
	}
	return context.WithTimeout(ctx, d)
}
