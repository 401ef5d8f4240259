package shard

// The coordinator as a plan executor: the shared front compiles every query
// route to the same sklang.Plan the single-node server runs, and Execute
// carries it out with the scatter-gather primitives, so a query answers
// bit-identically whether it reaches a server or a coordinator. The
// EXPLAIN answer differs on purpose: a coordinator rewrites each engine
// cost phase into the distributed step that carries it out — "scatter:*"
// fan-outs and "rank:*" single-shard steps — annotated with the tiles the
// execution actually touched and the shard-reported costs.

import (
	"context"
	"strconv"
	"sync"

	"surfknn/internal/server/api"
	"surfknn/internal/server/front"
	"surfknn/internal/sklang"
)

// Trace step names — the keys the scatter paths record under and the plan
// rewriter reads back.
const (
	traceStep1   = "knn2d"   // k-NN step 1 abroad: ShardKNN2D to every other tile
	traceMR3     = "mr3"     // k-NN on the query tile over the shipped candidates
	traceStep3   = "range2d" // resumed k-NN, step 3 abroad: ShardRange2D within the bound
	traceRankC2  = "rank-c2" // resumed k-NN, steps 3 and 4 on the query tile
	traceScatter = "scatter" // single-scatter algorithms (range, ea, distance)
)

// queryTrace records which tiles each distributed step touched and the
// costs the shards reported, for EXPLAIN. All methods are nil-safe (a nil
// trace records nothing, so a query without EXPLAIN builds no tile lists)
// and safe under scatter concurrency.
type queryTrace struct {
	c       *Coordinator // maps shard indexes to manifest tile ids
	mu      sync.Mutex
	tiles   map[string][]string
	costs   map[string]api.Cost
	resumed bool    // the k-NN query did not settle in one call
	radius  float64 // the step-3 radius it resumed at
}

// touch records the tiles of the shards idx as the ones step touched.
func (t *queryTrace) touch(step string, idx ...int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.tiles == nil {
		t.tiles = make(map[string][]string)
	}
	ids := make([]string, len(idx))
	for i, s := range idx {
		ids[i] = t.c.shards[s].meta.ID
	}
	t.tiles[step] = ids
}

func (t *queryTrace) charge(step string, c api.Cost) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.costs == nil {
		t.costs = make(map[string]api.Cost)
	}
	sum := t.costs[step]
	sum.Pages += c.Pages
	sum.CPUUs += c.CPUUs
	sum.ElapsedUs += c.ElapsedUs
	t.costs[step] = sum
}

func (t *queryTrace) resume(r float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.resumed, t.radius = true, r
	t.mu.Unlock()
}

// Catalog snapshots what the planner needs to know about the fleet: the
// manifest's object counts and extent, plus the face count learned in
// Verify.
func (c *Coordinator) Catalog() sklang.Catalog {
	objects := 0
	for _, m := range c.cfg.Manifest.Shards {
		objects += m.Objects
	}
	c.epochMu.Lock()
	faces := c.faces
	c.epochMu.Unlock()
	return sklang.Catalog{
		Objects: objects,
		Faces:   faces,
		Area:    c.cfg.Manifest.Extent.MBR().Area(),
	}
}

// Execute scatters one compiled plan and returns the merged answer — the
// coordinator's front.Executor. An explained plan records the tiles and
// shard costs of each step and answers with the distributed plan tree.
func (c *Coordinator) Execute(ctx context.Context, req front.Request) (front.Reply, error) {
	plan, timeout := req.Plan, api.Duration(req.Timeout)
	var tr *queryTrace
	if req.Explain {
		tr = &queryTrace{c: c}
	}
	var (
		ans front.Answer
		err error
	)
	switch plan.Algo {
	case sklang.AlgoMR3:
		ans.Query.Result, ans.Epoch, err = c.knn(ctx, plan, timeout, tr)
		if plan.HasFilter {
			ans.Query.Result.Neighbors = filterNeighbors(ans.Query.Result.Neighbors, plan.Radius)
		}
	case sklang.AlgoEA:
		ans.Query.Result, ans.Epoch, err = c.ea(ctx, plan, timeout, tr)
	case sklang.AlgoRange:
		ans.Query.Result, ans.Epoch, err = c.rangeQuery(ctx, plan, timeout, tr)
	case sklang.AlgoDistance:
		var d api.DistanceResponse
		d, ans.Epoch, err = c.distance(ctx, plan, timeout, tr)
		ans.Query.Result = api.Result{Neighbors: []api.Neighbor{}}
		ans.Query.Distance = &d
	case sklang.AlgoContinuous:
		err = front.BadRequest("SUBSCRIBE needs per-session state; connect to a shard server for subscriptions")
	default:
		err = front.BadRequest("statement form not executable on a coordinator")
	}
	if err != nil {
		return front.Reply{}, err
	}
	if req.Explain {
		ans.Plan = coordPlanNode(plan, tr)
	}
	body, err := req.Encode(&ans)
	return front.Reply{Body: body, Epoch: ans.Epoch}, err
}

// filterNeighbors keeps the prefix-closed subsequence with UB ≤ radius —
// the same post-filter the single-node executor applies.
func filterNeighbors(ns []api.Neighbor, radius float64) []api.Neighbor {
	out := ns[:0]
	for _, n := range ns {
		if float64(n.UB) <= radius {
			out = append(out, n)
		}
	}
	if out == nil {
		out = []api.Neighbor{}
	}
	return out
}

// coordPlanNode rewrites a compiled plan into the distributed plan the
// coordinator actually ran: each engine cost phase becomes the scatter or
// single-shard rank step that carried it out, annotated with the tiles the
// trace recorded and the shard-reported costs. Page estimates carry over
// from the planner's matching phase leaf; a single-scatter algorithm's
// node inherits the whole root estimate.
func coordPlanNode(plan *sklang.Plan, tr *queryTrace) api.PlanNode {
	src := plan.Root.Wire()
	root := api.PlanNode{
		Op:       src.Op,
		Detail:   src.Detail,
		EstPages: src.EstPages,
	}
	phaseEst := make(map[string]int64)
	var filter *api.PlanNode
	for i := range src.Children {
		ch := src.Children[i]
		switch {
		case ch.Op == "filter":
			filter = &src.Children[i]
		default:
			phaseEst[ch.Op] = ch.EstPages
		}
	}
	step := func(op, phase, detail string, est int64) api.PlanNode {
		n := api.PlanNode{Op: op, Detail: detail, EstPages: est, Tiles: tr.tiles[phase]}
		if cost, ok := tr.costs[phase]; ok {
			n.Cost = &cost
		}
		return n
	}
	switch plan.Algo {
	case sklang.AlgoMR3:
		// A settled query ran every phase in the one query-tile call.
		mr3Est := phaseEst["phase:rank-c1"]
		if !tr.resumed {
			mr3Est += phaseEst["phase:range2d"] + phaseEst["phase:rank-c2"]
		}
		root.Children = []api.PlanNode{
			step("scatter:knn2d", traceStep1, "k nearest by planar distance, every other tile", phaseEst["phase:knn2d"]),
			step("rank:mr3", traceMR3, "MR3 on the query tile over its objects and the shipped candidates", mr3Est),
		}
		if tr.resumed {
			root.Children = append(root.Children,
				step("scatter:range2d", traceStep3, fmtRadius(tr), phaseEst["phase:range2d"]),
				step("rank:rank-c2", traceRankC2, "steps 3 and 4 on the query tile", phaseEst["phase:rank-c2"]),
			)
		}
	case sklang.AlgoEA, sklang.AlgoRange:
		root.Children = []api.PlanNode{
			step("scatter:"+string(plan.Algo), traceScatter, "full query on each tile, merge", src.EstPages),
		}
	case sklang.AlgoDistance:
		root.Children = []api.PlanNode{
			step("rank:distance", traceScatter, "terrain-only, any one shard", src.EstPages),
		}
	}
	if filter != nil {
		root.Children = append(root.Children, *filter)
	}
	// The root total is the sum of what the shards reported.
	var total api.Cost
	for _, ch := range root.Children {
		if ch.Cost != nil {
			total.Pages += ch.Cost.Pages
			total.CPUUs += ch.Cost.CPUUs
			total.ElapsedUs += ch.Cost.ElapsedUs
		}
	}
	if total != (api.Cost{}) {
		root.Cost = &total
	}
	return root
}

func fmtRadius(tr *queryTrace) string {
	return "gather within the k-th upper bound r=" + strconv.FormatFloat(tr.radius, 'g', -1, 64) +
		", tiles the shipped candidates do not cover"
}
