package shard

import (
	"context"
	"errors"
	"fmt"
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

// tileIDs maps shard indexes to their manifest tile ids.
func (c *Coordinator) tileIDs(idx []int) []string {
	ids := make([]string, len(idx))
	for i, s := range idx {
		ids[i] = c.shards[s].meta.ID
	}
	return ids
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
// own ShardTimeout slice of ctx. A shard's refusal of the request is
// relayed as is; any other failures are gathered into a *DegradedError.
func (c *Coordinator) scatter(ctx context.Context, targets []int, call func(ctx context.Context, i int, sc *shardConn) error) error {
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		errs    []api.ShardError
		refused *front.Error
	)
	for _, i := range targets {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.stats.ShardCalls.Add(1)
			callCtx, cancel := context.WithTimeout(ctx, c.cfg.ShardTimeout)
			defer cancel()
			if err := call(callCtx, i, &c.shards[i]); err != nil {
				c.stats.ShardErrors.Add(1)
				mu.Lock()
				if ref := refusal(err); ref != nil {
					refused = ref
				}
				errs = append(errs, api.ShardError{Shard: c.shards[i].meta.ID, Error: err.Error()})
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if refused != nil {
		return refused
	}
	if len(errs) > 0 {
		sort.Slice(errs, func(a, b int) bool { return errs[a].Shard < errs[b].Shard })
		return &DegradedError{Shards: errs}
	}
	return nil
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

// mergeCandidates canonically orders a gathered candidate union: ascending
// planar distance to q, object id as the tiebreak, duplicates (an object
// caught mid-move across an epoch-skewed fleet) keeping the nearest copy.
// The unsharded engine feeds candidates to the ranker in 2-D index order —
// ascending planar distance for step 1 — and the ranker's bounds are
// order-independent, so this canonical order reproduces its values bit for
// bit (exact distance ties aside, which have measure zero on real
// workloads).
func mergeCandidates(q geom.Vec2, lists [][]api.Candidate) []api.Candidate {
	var all []api.Candidate
	for _, l := range lists {
		all = append(all, l...)
	}
	d2 := func(cd api.Candidate) float64 {
		dx, dy := cd.X-q.X, cd.Y-q.Y
		return dx*dx + dy*dy
	}
	sort.Slice(all, func(a, b int) bool {
		da, db := d2(all[a]), d2(all[b])
		//lint:ignore float-eq canonical order is defined on exact float bits, mirroring index.SortByDist
		if da != db {
			return da < db
		}
		return all[a].ID < all[b].ID
	})
	out := all[:0]
	seen := make(map[int64]bool, len(all))
	for _, cd := range all {
		if seen[cd.ID] {
			continue
		}
		seen[cd.ID] = true
		out = append(out, cd)
	}
	return out
}

// rankShard picks the shard that runs the ranking steps: the one whose
// tile contains the query point. Any shard would do — each holds the full
// terrain — but the containing tile is deterministic and keeps a workload's
// ranking load spread across the fleet.
func (c *Coordinator) rankShard(q geom.Vec2) int {
	ix, iy := c.tiling.TileOf(q)
	return iy*c.tiling.NX + ix
}

// knn answers an MR3 plan over the fleet, bit-identical to the unsharded
// engine: scatter step 1, rank the gathered C1 on one shard to obtain the
// k-th upper bound, scatter step 3 to the shards within that radius, rank
// the gathered C2. Returns the result and the merged epoch; tr records the
// execution for EXPLAIN (nil records nothing).
func (c *Coordinator) knn(ctx context.Context, p *sklang.Plan, timeout api.Duration, tr *queryTrace) (api.Result, uint64, error) {
	q := geom.Vec2{X: p.X, Y: p.Y}
	var (
		ep    epochs
		cost  costs
		lists = make([][]api.Candidate, len(c.shards))
	)
	// Step 1: every shard contributes its k nearest by planar distance; no
	// bound exists yet to prune with.
	tr.touch(traceStep1, c.tileIDs(c.allShards()))
	err := c.scatter(ctx, c.allShards(), func(ctx context.Context, i int, sc *shardConn) error {
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
	c1 := mergeCandidates(q, lists)
	if len(c1) > p.K {
		c1 = c1[:p.K]
	}

	// Steps 2 and 4 rank a gathered candidate set on the query tile's shard.
	rank := c.rankShard(q)
	rankOn := func(step string, tighten bool, cands []api.Candidate) (api.ShardResult, error) {
		tr.touch(step, c.tileIDs([]int{rank}))
		var out api.ShardResult
		err := c.scatter(ctx, []int{rank}, func(ctx context.Context, _ int, sc *shardConn) error {
			var err error
			out, _, err = sc.cli.ShardRank(ctx, api.ShardRankRequest{
				X: p.X, Y: p.Y, K: p.K,
				Sched: p.Sched, Options: p.Options, Timeout: timeout,
				Tighten: tighten, Candidates: cands,
			})
			return err
		})
		if err == nil {
			ep.observe(out.Epoch)
			cost.add(out.Cost)
			tr.charge(step, out.Cost)
		}
		return out, err
	}

	// Step 2: rank C1 with tightening, for the k-th upper bound.
	ranked, err := rankOn(traceRankC1, true, c1)
	if err != nil {
		return api.Result{}, 0, err
	}
	if len(ranked.Neighbors) == 0 {
		return api.Result{}, 0, errors.New("shard: no candidate objects on the fleet")
	}
	kth := len(ranked.Neighbors)
	if p.K < kth {
		kth = p.K
	}
	radius := float64(ranked.Neighbors[kth-1].UB)
	if math.IsInf(radius, 1) {
		return api.Result{}, 0, errors.New("shard: could not bound the k-th neighbour (disconnected surface?)")
	}

	// Step 3: gather every object within the radius, from the shards whose
	// tile the radius reaches.
	lists = make([][]api.Candidate, len(c.shards))
	reach := c.reachableShards(q, radius)
	tr.touch(traceStep3, c.tileIDs(reach))
	tr.bound(radius)
	err = c.scatter(ctx, reach, func(ctx context.Context, i int, sc *shardConn) error {
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
	c2 := mergeCandidates(q, lists)

	// Step 4: settle the k-set over C2.
	final, err := rankOn(traceRankC2, false, c2)
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
	tr.touch(traceScatter, c.tileIDs(reach))
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
	tr.touch(traceScatter, c.tileIDs(c.allShards()))
	err := c.scatter(ctx, c.allShards(), func(ctx context.Context, i int, sc *shardConn) error {
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
			tr.touch(traceScatter, c.tileIDs([]int{i}))
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
