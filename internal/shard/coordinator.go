package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"surfknn/internal/geom"
	"surfknn/internal/obs"
	"surfknn/internal/server/api"
	"surfknn/internal/server/client"
	"surfknn/internal/server/front"
	"surfknn/internal/sklang"
)

// Config tunes a Coordinator.
type Config struct {
	// Manifest describes the fleet; every entry must carry an Addr.
	Manifest *Manifest
	// ShardTimeout bounds each individual shard call (default 10s). The
	// public request's own deadline still applies on top.
	ShardTimeout time.Duration
	// Retries is how many times a saturated (429) shard call is retried
	// with Retry-After backoff before the shard counts as failed
	// (default 2).
	Retries int
	// Stats receives the coordinator metrics; nil creates a private group.
	// Publishing it (as "surfknn_coord") is the caller's choice.
	Stats *obs.CoordStats
	// HTTPClient overrides the transport of every shard client (tests
	// inject httptest transports); nil uses the default.
	HTTPClient *http.Client
	// AccessLog receives one JSON line per public request when non-nil,
	// in skserve's format (front.AccessLog).
	AccessLog io.Writer
}

// shardConn is one shard the coordinator talks to.
type shardConn struct {
	meta   ShardMeta
	region geom.MBR
	cli    *client.Client
}

// Coordinator answers the public surfknn API over a fleet of shard
// servers, scattering the decomposed MR3 primitives and merging partial
// results so the assembled answer is bit-identical to one unsharded
// server's (see the package comment). Create with New, verify the fleet
// with Verify, expose over HTTP with Handler.
type Coordinator struct {
	tiling Tiling
	shards []shardConn // indexed iy*NX+ix
	cfg    Config
	stats  *obs.CoordStats
	access *front.AccessLog

	// epochMu serialises logical updates: the coordinator assigns each one
	// the next epoch number and must finish replaying it before the next
	// claims a number, so every shard sees epochs in order.
	epochMu sync.Mutex
	epoch   uint64

	// faces is the terrain's face count, learned from the fleet in Verify
	// (every shard carries the full terrain). Zero until then; the SKQL
	// planner's catalog tolerates that — it only degrades the estimates.
	faces int
}

// New builds a coordinator from a manifest whose entries all carry shard
// addresses. It does not touch the network — call Verify before serving.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Manifest == nil {
		return nil, errors.New("shard: coordinator needs a manifest")
	}
	if err := cfg.Manifest.Validate(); err != nil {
		return nil, err
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 10 * time.Second
	}
	if cfg.Retries < 0 {
		cfg.Retries = 0
	}
	if cfg.Stats == nil {
		cfg.Stats = obs.NewCoordStats()
	}
	tiling := cfg.Manifest.Tiling()
	c := &Coordinator{
		tiling: tiling,
		shards: make([]shardConn, tiling.NumTiles()),
		cfg:    cfg,
		stats:  cfg.Stats,
		access: front.NewAccessLog(cfg.AccessLog),
		epoch:  cfg.Manifest.Epoch,
	}
	opts := []client.Option{client.WithRetries(cfg.Retries)}
	if cfg.HTTPClient != nil {
		opts = append(opts, client.WithHTTPClient(cfg.HTTPClient))
	}
	for _, m := range cfg.Manifest.Shards {
		if m.Addr == "" {
			return nil, fmt.Errorf("shard: %s has no address", m.ID)
		}
		base := m.Addr
		if !strings.Contains(base, "://") {
			base = "http://" + base
		}
		c.shards[m.IY*tiling.NX+m.IX] = shardConn{
			meta:   m,
			region: tiling.Region(m.IX, m.IY),
			cli:    client.New(base, opts...),
		}
	}
	return c, nil
}

// Stats returns the coordinator's metric group.
func (c *Coordinator) Stats() *obs.CoordStats { return c.stats }

// Verify health-checks every shard and cross-checks the topology: each
// shard must report the shard id its manifest entry claims and every shard
// must agree on the snapshot format version. It also adopts the fleet's
// highest epoch as the base for update numbering, so a coordinator
// restarted mid-stream continues the sequence instead of reissuing taken
// numbers.
func (c *Coordinator) Verify(ctx context.Context) error {
	results := make([]api.Healthz, len(c.shards))
	err := c.scatter(ctx, c.allShards(), func(ctx context.Context, i int, sc *shardConn) error {
		hz, err := sc.cli.Healthz(ctx)
		if err != nil {
			return err
		}
		if hz.ShardID != sc.meta.ID {
			return fmt.Errorf("reports shard id %q, manifest says %q", hz.ShardID, sc.meta.ID)
		}
		results[i] = hz
		return nil
	})
	if err != nil {
		return err
	}
	format := results[0].FormatVersion
	maxEpoch := uint64(0)
	for i, hz := range results {
		if hz.FormatVersion != format {
			return fmt.Errorf("shard: %s runs snapshot format v%d, %s runs v%d",
				c.shards[i].meta.ID, hz.FormatVersion, c.shards[0].meta.ID, format)
		}
		if hz.Epoch > maxEpoch {
			maxEpoch = hz.Epoch
		}
	}
	c.epochMu.Lock()
	if maxEpoch > c.epoch {
		c.epoch = maxEpoch
	}
	c.faces = results[0].Faces
	c.epochMu.Unlock()
	return nil
}

// DegradedError reports a scatter that could not assemble a complete
// answer: which shards failed and why.
type DegradedError struct {
	Shards []api.ShardError
}

// Unwrap gives the error its place in the wire contract: 503
// shard_unavailable with the per-shard detail in the envelope.
func (e *DegradedError) Unwrap() error { return front.Unavailable(e.Shards) }

func (e *DegradedError) Error() string {
	ids := make([]string, len(e.Shards))
	for i, s := range e.Shards {
		ids[i] = s.Shard
	}
	return fmt.Sprintf("shard: %d shard(s) unavailable: %s", len(e.Shards), strings.Join(ids, ", "))
}

// allShards returns every shard index.
func (c *Coordinator) allShards() []int {
	idx := make([]int, len(c.shards))
	for i := range idx {
		idx[i] = i
	}
	return idx
}

// reachableShards returns the shards whose tile rectangle lies within
// planar distance radius of q — the only shards that can own an object
// whose 2-D (and therefore surface) distance to q is at most radius —
// counting the pruned rest.
func (c *Coordinator) reachableShards(q geom.Vec2, radius float64) []int {
	var idx []int
	for i := range c.shards {
		if c.shards[i].region.DistToPoint(q) <= radius {
			idx = append(idx, i)
		} else {
			c.stats.PrunedShards.Add(1)
		}
	}
	return idx
}

// refusal returns the error to relay when a shard refused the request
// itself (status < 500: bad parameters, an off-terrain point). That is the
// answer, not an outage — every shard would refuse identically — so it
// keeps its status and code instead of degrading to a retryable 503.
func refusal(err error) *front.Error {
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status >= http.StatusInternalServerError {
		return nil
	}
	return &front.Error{Status: apiErr.Status, Body: api.ErrorBody{
		Code: apiErr.Code, Message: apiErr.Message, Shards: apiErr.Shards,
		Line: apiErr.Line, Col: apiErr.Col, Token: apiErr.Token,
	}}
}

// scatter fans call out to the given shards concurrently, each under its
// own ShardTimeout slice of ctx; a lone target runs on the calling
// goroutine. A shard's refusal of the request is relayed as is; any other
// failures are gathered into a *DegradedError.
func (c *Coordinator) scatter(ctx context.Context, targets []int, call func(ctx context.Context, i int, sc *shardConn) error) error {
	if len(targets) == 1 {
		if err := c.callShard(ctx, targets[0], call); err != nil {
			return c.failure(targets, []error{err})
		}
		return nil
	}
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for j, i := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[j] = c.callShard(ctx, i, call)
		}()
	}
	wg.Wait()
	return c.failure(targets, errs)
}

// callShard runs one shard call under its ShardTimeout, counted.
func (c *Coordinator) callShard(ctx context.Context, i int, call func(ctx context.Context, i int, sc *shardConn) error) error {
	c.stats.ShardCalls.Add(1)
	callCtx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
	defer cancel()
	err := call(callCtx, i, &c.shards[i])
	if err != nil {
		c.stats.ShardErrors.Add(1)
	}
	return err
}

// failure is a scatter's outcome from errs[j], the error of the call to
// targets[j]: nil when every call succeeded, a refusal as is, else a
// *DegradedError naming the failed shards.
func (c *Coordinator) failure(targets []int, errs []error) error {
	var failed []api.ShardError
	for j, err := range errs {
		if err == nil {
			continue
		}
		if ref := refusal(err); ref != nil {
			return ref
		}
		failed = append(failed, api.ShardError{Shard: c.shards[targets[j]].meta.ID, Error: err.Error()})
	}
	if len(failed) == 0 {
		return nil
	}
	sort.Slice(failed, func(a, b int) bool { return failed[a].Shard < failed[b].Shard })
	return &DegradedError{Shards: failed}
}

// epochs tracks the min and max store epoch observed across one query's
// shard responses. The merged X-Epoch is the minimum: every shard has
// applied at least that logical update, so the answer is complete up to it.
type epochs struct {
	mu       sync.Mutex
	min, max uint64
	seen     bool
}

func (e *epochs) observe(v uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.seen {
		e.min, e.max, e.seen = v, v, true
		return
	}
	if v < e.min {
		e.min = v
	}
	if v > e.max {
		e.max = v
	}
}

// merged returns the fleet epoch the answer is complete up to.
func (e *epochs) merged() uint64 { return e.min }

// costs accumulates shard response costs; the merged cost reports the
// total distributed work, which legitimately exceeds one unsharded run's.
type costs struct {
	mu  sync.Mutex
	sum api.Cost
}

func (c *costs) add(v api.Cost) {
	c.mu.Lock()
	c.sum.Pages += v.Pages
	c.sum.CPUUs += v.CPUUs
	c.sum.ElapsedUs += v.ElapsedUs
	c.mu.Unlock()
}

// rankShard picks the shard that answers a k-NN query: the one whose tile
// contains the query point. Any shard would do — each holds the full
// terrain — but the containing tile holds the nearest objects, so its own
// partition supplies most of the candidates, and the choice is
// deterministic and spreads a workload's ranking load across the fleet.
func (c *Coordinator) rankShard(q geom.Vec2) int {
	ix, iy := c.tiling.TileOf(q)
	return iy*c.tiling.NX + ix
}

// knn answers an MR3 plan over the fleet, bit-identical to the unsharded
// engine. Every other tile returns its k nearest objects by planar distance
// (step 1 abroad), and the query tile's shard runs all four steps over its
// own partition plus those candidates. That settles the query whenever the
// step-2 radius r lies below the shipped set's completeness radius; else
// the shard returns r, the reachable tiles whose shipped set does not cover
// r answer a 2-D range query (step 3 abroad), and the query tile's shard
// is called again for steps 3 and 4 at r. Returns the result and the merged
// epoch; tr records the execution for EXPLAIN (nil records nothing).
func (c *Coordinator) knn(ctx context.Context, p *sklang.Plan, timeout api.Duration, tr *queryTrace) (api.Result, uint64, error) {
	q := geom.Vec2{X: p.X, Y: p.Y}
	home := c.rankShard(q)
	var (
		ep      epochs
		cost    costs
		lists   = make([][]api.Candidate, len(c.shards))
		foreign = make([]int, 0, len(c.shards)-1)
	)
	for i := range c.shards {
		if i != home {
			foreign = append(foreign, i)
		}
	}
	tr.touch(traceStep1, foreign...)
	err := c.scatter(ctx, foreign, func(ctx context.Context, i int, sc *shardConn) error {
		res, _, err := sc.cli.ShardKNN2D(ctx, api.ShardKNN2DRequest{X: p.X, Y: p.Y, K: p.K})
		if err != nil {
			return err
		}
		ep.observe(res.Epoch)
		lists[i] = res.Candidates
		return nil
	})
	if err != nil {
		return api.Result{}, 0, err
	}
	// covers[i] is the planar radius below which tile i's list holds every
	// object of the tile: its k-th distance, or +Inf for a short list.
	covers := make([]float64, len(c.shards))
	complete := math.Inf(1)
	var shipped []api.Candidate
	for _, i := range foreign {
		shipped = append(shipped, lists[i]...)
		covers[i] = math.Inf(1)
		if len(lists[i]) >= p.K {
			covers[i] = 0
			for _, cd := range lists[i] {
				covers[i] = math.Max(covers[i], geom.Vec2{X: cd.X, Y: cd.Y}.Dist(q))
			}
			complete = math.Min(complete, covers[i])
		}
	}

	// The query tile's shard answers, or asks to resume at a radius.
	onHome := func(step string, req api.ShardKNNRequest) (api.ShardResult, error) {
		tr.touch(step, home)
		var out api.ShardResult
		err := c.scatter(ctx, []int{home}, func(ctx context.Context, _ int, sc *shardConn) error {
			var err error
			out, _, err = sc.cli.ShardKNN(ctx, req)
			return err
		})
		if err == nil {
			ep.observe(out.Epoch)
			cost.add(out.Cost)
			tr.charge(step, out.Cost)
		}
		return out, err
	}
	req := api.ShardKNNRequest{
		X: p.X, Y: p.Y, K: p.K,
		Sched: p.Sched, Options: p.Options, Timeout: timeout,
		Candidates: shipped, Complete: api.Float(complete),
	}
	out, err := onHome(traceMR3, req)
	if err != nil {
		return api.Result{}, 0, err
	}
	if out.Radius == nil {
		c.stats.KNNSettled.Add(1)
		return api.Result{Neighbors: out.Neighbors, Cost: cost.sum}, ep.merged(), nil
	}
	c.stats.KNNResumed.Add(1)
	radius := *out.Radius
	tr.resume(radius)

	// Step 3 abroad: a reachable tile whose shipped list covers the radius
	// contributes that list (the query tile's shard applies the range
	// predicate); the rest answer the 2-D range query.
	var ship2 []api.Candidate
	var gather []int
	for _, i := range c.reachableShards(q, radius) {
		switch {
		case i == home:
		case radius < covers[i]:
			ship2 = append(ship2, lists[i]...)
		default:
			gather = append(gather, i)
		}
	}
	tr.touch(traceStep3, gather...)
	err = c.scatter(ctx, gather, func(ctx context.Context, i int, sc *shardConn) error {
		res, _, err := sc.cli.ShardRange2D(ctx, api.ShardRange2DRequest{X: p.X, Y: p.Y, Radius: radius})
		if err != nil {
			return err
		}
		ep.observe(res.Epoch)
		lists[i] = res.Candidates
		return nil
	})
	if err != nil {
		return api.Result{}, 0, err
	}
	for _, i := range gather {
		ship2 = append(ship2, lists[i]...)
	}

	// Steps 3 and 4 on the query tile, at the radius.
	req.Candidates, req.Complete, req.Radius = ship2, 0, &radius
	final, err := onHome(traceRankC2, req)
	if err != nil {
		return api.Result{}, 0, err
	}
	return api.Result{Neighbors: final.Neighbors, Cost: cost.sum}, ep.merged(), nil
}

// rangeQuery answers a surface range plan: per-candidate classification
// against a fixed radius is independent of every other candidate, so each
// shard answers over its own partition and the coordinator concatenates,
// ordering by upper bound exactly like the engine.
func (c *Coordinator) rangeQuery(ctx context.Context, p *sklang.Plan, timeout api.Duration, tr *queryTrace) (api.Result, uint64, error) {
	q := geom.Vec2{X: p.X, Y: p.Y}
	var (
		ep    epochs
		cost  costs
		lists = make([][]api.Neighbor, len(c.shards))
	)
	reach := c.reachableShards(q, p.Radius)
	tr.touch(traceScatter, reach...)
	err := c.scatter(ctx, reach, func(ctx context.Context, i int, sc *shardConn) error {
		res, _, err := sc.cli.ShardRange(ctx, api.ShardRangeRequest{
			X: p.X, Y: p.Y, Radius: p.Radius,
			Sched: p.Sched, Options: p.Options, Timeout: timeout,
		})
		if err != nil {
			return err
		}
		ep.observe(res.Epoch)
		cost.add(res.Cost)
		tr.charge(traceScatter, res.Cost)
		lists[i] = res.Neighbors
		return nil
	})
	if err != nil {
		return api.Result{}, 0, err
	}
	merged := mergeNeighbors(q, lists, -1)
	if !ep.seen {
		// The radius reached no tile at all: an empty answer at the
		// fleet's current epoch (probe one shard for the number).
		hz, err := c.shards[0].cli.Healthz(ctx)
		if err == nil {
			ep.observe(hz.Epoch)
		}
	}
	return api.Result{Neighbors: merged, Cost: cost.sum}, ep.merged(), nil
}

// ea answers an Enhanced Approximation plan: every shard returns its local
// top-k with exact distances and the coordinator keeps the global best k.
// No pruning bound exists before the scatter, so every shard is consulted.
func (c *Coordinator) ea(ctx context.Context, p *sklang.Plan, timeout api.Duration, tr *queryTrace) (api.Result, uint64, error) {
	var (
		ep    epochs
		cost  costs
		lists = make([][]api.Neighbor, len(c.shards))
	)
	all := c.allShards()
	tr.touch(traceScatter, all...)
	err := c.scatter(ctx, all, func(ctx context.Context, i int, sc *shardConn) error {
		res, _, err := sc.cli.ShardEA(ctx, api.ShardEARequest{X: p.X, Y: p.Y, K: p.K, Timeout: timeout})
		if err != nil {
			return err
		}
		ep.observe(res.Epoch)
		cost.add(res.Cost)
		tr.charge(traceScatter, res.Cost)
		lists[i] = res.Neighbors
		return nil
	})
	if err != nil {
		return api.Result{}, 0, err
	}
	merged := mergeNeighbors(geom.Vec2{X: p.X, Y: p.Y}, lists, p.K)
	return api.Result{Neighbors: merged, Cost: cost.sum}, ep.merged(), nil
}

// mergeNeighbors concatenates per-shard neighbour lists and orders them by
// (upper bound, planar distance to q, id), truncating to k when k >= 0.
// This is exactly the engine's result order: its final sort is a stable
// upper-bound sort over candidates enumerated in canonical (planar
// distance, id) order, which composes to the same total order.
func mergeNeighbors(q geom.Vec2, lists [][]api.Neighbor, k int) []api.Neighbor {
	var all []api.Neighbor
	for _, l := range lists {
		all = append(all, l...)
	}
	d2 := func(n api.Neighbor) float64 {
		dx, dy := n.X-q.X, n.Y-q.Y
		return dx*dx + dy*dy
	}
	sort.Slice(all, func(a, b int) bool {
		//lint:ignore float-eq bit-identical merge order requires exact comparison, mirroring the engine's stable sort
		if all[a].UB != all[b].UB {
			return all[a].UB < all[b].UB
		}
		//lint:ignore float-eq same: the tiebreak must match index.SortByDist bit for bit
		if da, db := d2(all[a]), d2(all[b]); da != db {
			return da < db
		}
		return all[a].ID < all[b].ID
	})
	if k >= 0 && len(all) > k {
		all = all[:k]
	}
	if all == nil {
		all = []api.Neighbor{}
	}
	return all
}

// distance answers a point-to-point surface distance plan. The terrain is
// replicated on every shard, so any one can answer; the query tile's shard
// is asked first and the rest serve as fallbacks.
func (c *Coordinator) distance(ctx context.Context, p *sklang.Plan, timeout api.Duration, tr *queryTrace) (api.DistanceResponse, uint64, error) {
	req := api.DistanceRequest{
		X: p.X, Y: p.Y, X2: p.X2, Y2: p.Y2,
		Accuracy: p.Accuracy, Sched: p.Sched, Timeout: timeout,
	}
	order := []int{c.rankShard(geom.Vec2{X: req.X, Y: req.Y})}
	for i := range c.shards {
		if i != order[0] {
			order = append(order, i)
		}
	}
	var errs []api.ShardError
	for _, i := range order {
		sc := &c.shards[i]
		c.stats.ShardCalls.Add(1)
		callCtx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
		res, meta, err := sc.cli.Distance(callCtx, req)
		cancel()
		if err == nil {
			tr.touch(traceScatter, i)
			return res, meta.Epoch, nil
		}
		c.stats.ShardErrors.Add(1)
		if ref := refusal(err); ref != nil {
			return api.DistanceResponse{}, 0, ref
		}
		errs = append(errs, api.ShardError{Shard: sc.meta.ID, Error: err.Error()})
	}
	return api.DistanceResponse{}, 0, &DegradedError{Shards: errs}
}

// Upsert applies one object batch fleet-wide under the next epoch: the last
// occurrence of each id is routed to the tile that owns its new position,
// and the id is broadcast as a delete to every other shard, so an object
// moving across a tile boundary — or named twice in one batch, at positions
// in two tiles — never ends up live twice. The front has already vetted the
// batch (non-empty, bounded, every object carrying an id).
func (c *Coordinator) Upsert(ctx context.Context, req api.UpsertRequest) (api.UpdateResponse, error) {
	last := make(map[int64]int, len(req.Objects)) // id → index of its last occurrence
	for i, o := range req.Objects {
		last[*o.ID] = i
	}
	owned := make([][]api.UpsertObject, len(c.shards))
	owner := make(map[int64]int, len(last))
	ids := make([]int64, 0, len(last))
	for i, o := range req.Objects {
		if last[*o.ID] != i {
			continue // a later occurrence of the id wins
		}
		ix, iy := c.tiling.TileOf(geom.Vec2{X: o.X, Y: o.Y})
		s := iy*c.tiling.NX + ix
		owned[s] = append(owned[s], o)
		owner[*o.ID] = s
		ids = append(ids, *o.ID)
	}
	epoch, _, err := c.broadcast(ctx, func(i int) api.ShardObjectsRequest {
		var deletes []int64
		for _, id := range ids {
			if owner[id] != i {
				deletes = append(deletes, id)
			}
		}
		return api.ShardObjectsRequest{Objects: owned[i], DeleteIDs: deletes}
	})
	if err != nil {
		return api.UpdateResponse{}, err
	}
	return api.UpdateResponse{Epoch: epoch, Count: len(req.Objects)}, nil
}

// Delete removes a batch of objects fleet-wide under the next epoch. Ids
// are broadcast to every shard — only the owner has each object live, and
// deleting an absent id is a no-op — and the per-shard applied counts sum
// to the number of objects that were actually live.
func (c *Coordinator) Delete(ctx context.Context, req api.DeleteRequest) (api.DeleteResponse, error) {
	epoch, deleted, err := c.broadcast(ctx, func(int) api.ShardObjectsRequest {
		return api.ShardObjectsRequest{DeleteIDs: req.IDs}
	})
	if err != nil {
		return api.DeleteResponse{}, err
	}
	distinct := make(map[int64]struct{}, len(req.IDs))
	for _, id := range req.IDs {
		distinct[id] = struct{}{}
	}
	return api.DeleteResponse{
		Epoch:   epoch,
		Deleted: deleted,
		Missing: len(distinct) - deleted,
	}, nil
}

// broadcast is the fleet's one writer: it assigns one logical update the
// next epoch and replays it to every shard, shard i applying part(i) at
// that epoch. Every shard publishes the epoch, touched or not, so the fleet
// advances in lockstep. Failure of any shard leaves the fleet degraded and
// is reported as such — the epoch stays consumed, and replaying the update
// is safe because ApplyAt is idempotent and later epochs subsume earlier
// ones. Returns the epoch and the shards' summed applied counts.
func (c *Coordinator) broadcast(ctx context.Context, part func(i int) api.ShardObjectsRequest) (uint64, int, error) {
	c.epochMu.Lock()
	defer c.epochMu.Unlock()
	c.epoch++
	epoch := c.epoch
	var applied atomic.Int64
	err := c.scatter(ctx, c.allShards(), func(ctx context.Context, i int, sc *shardConn) error {
		req := part(i)
		req.Epoch = epoch
		res, _, err := sc.cli.ShardObjects(ctx, req)
		if err != nil {
			return err
		}
		applied.Add(int64(res.Applied))
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	c.stats.Updates.Add(1)
	return epoch, int(applied.Load()), nil
}

// Healthz assembles the fleet's health: per-shard status lines, the summed
// object count, and the merged (minimum) epoch. A fleet with unreachable
// shards reports status "degraded" — the coordinator is alive, the answer
// surface is not complete.
func (c *Coordinator) Healthz(ctx context.Context) (api.Healthz, error) {
	type line struct {
		hz  api.Healthz
		err error
	}
	results := make([]line, len(c.shards))
	// Health must not degrade into an error: collect per-shard outcomes.
	//lint:ignore dropped-error every per-shard failure is captured in results and reported in the body
	_ = c.scatter(ctx, c.allShards(), func(ctx context.Context, i int, sc *shardConn) error {
		hz, err := sc.cli.Healthz(ctx)
		results[i] = line{hz: hz, err: err}
		return nil // failures are reported in the body, not as a scatter error
	})
	out := api.Healthz{Status: "ok"}
	var ep epochs
	for i, r := range results {
		sh := api.ShardHealth{ID: c.shards[i].meta.ID, Addr: c.shards[i].cli.Base()}
		if r.err != nil {
			sh.Status = "unreachable"
			out.Status = "degraded"
		} else {
			sh.Status = r.hz.Status
			sh.Epoch = r.hz.Epoch
			sh.Objects = r.hz.Objects
			out.Objects += r.hz.Objects
			out.Vertices = r.hz.Vertices
			out.Faces = r.hz.Faces
			out.FormatVersion = r.hz.FormatVersion
			ep.observe(r.hz.Epoch)
		}
		out.Shards = append(out.Shards, sh)
	}
	out.Epoch = ep.merged()
	return out, nil
}
