// Package skexec executes compiled SKQL plans on a single-node engine: a
// sklang.Plan in, the exact core call it stands for out. It is the only
// bridge between the engine-free language package and internal/core — the
// standalone server and skquery both run plans through it, and the
// equivalence tests pin that an executed plan is bit-identical (IDs,
// float64 bits, Cost.Pages) to the direct Session call it compiles to.
//
// After execution the plan tree is annotated in place: each cost phase the
// engine reported lands on its "phase:<name>" leaf (phases the planner did
// not predict are appended — the engine's account wins), and algorithm
// nodes get the actual totals.
package skexec

import (
	"context"
	"errors"
	"fmt"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
	"surfknn/internal/stats"
)

// ErrOffTerrain wraps a query point outside the terrain extent — the
// serving layers map it to their 404.
var ErrOffTerrain = errors.New("point is not on the terrain")

// Outcome is what executing one plan produced. Exactly one payload is
// populated, selected by the plan's Form; Plan points at the annotated
// tree.
type Outcome struct {
	Plan *sklang.Plan
	// Result is the select/range/subscribe payload. Its Neighbors alias
	// session scratch exactly like a direct core call's — consume before
	// the session's next query.
	Result core.Result
	// Distance is the DISTANCE form's payload.
	Distance core.DistanceRange
	// Safe is the subscribe form's one-shot safe region (Run evaluates the
	// continuous query once; registering it is the serving layer's job —
	// see the server's /v1/query handler).
	Safe core.SafeRegion
}

// Schedule maps a schedule number onto the paper's schedules (0 selects the
// default, 1): the one mapping of plans, wire requests and the skquery
// -sched flag. The false return is unreachable for planner-built plans — the
// planner validates s — but hand-built plans go through it too.
func Schedule(n int) (core.Schedule, bool) {
	switch n {
	case 0, 1:
		return core.S1, true
	case 2:
		return core.S2, true
	case 3:
		return core.S3, true
	}
	return 0, false
}

// CoreOptions maps the wire options onto core.Options, validating
// fractions. Shared by the /v1 handlers and the plan executor so both
// translate a client's options identically — the bit-identity guarantee
// depends on it.
func CoreOptions(o *api.Options) (core.Options, error) {
	if o == nil {
		return core.Options{}, nil
	}
	var fns []core.Option
	if o.Step2Accuracy != nil {
		if !inUnit(*o.Step2Accuracy) {
			return core.Options{}, fmt.Errorf("step2_accuracy %g outside [0,1]", *o.Step2Accuracy)
		}
		fns = append(fns, core.WithStep2Accuracy(*o.Step2Accuracy))
	}
	if o.OverlapThreshold != nil {
		if !inUnit(*o.OverlapThreshold) {
			return core.Options{}, fmt.Errorf("overlap_threshold %g outside [0,1]", *o.OverlapThreshold)
		}
		fns = append(fns, core.WithOverlapThreshold(*o.OverlapThreshold))
	}
	if o.IOIntegration != nil {
		fns = append(fns, core.WithIOIntegration(*o.IOIntegration))
	}
	if o.DummyLB != nil {
		fns = append(fns, core.WithDummyLB(*o.DummyLB))
	}
	return core.NewOptions(fns...), nil
}

func inUnit(v float64) bool { return v >= 0 && v <= 1 }

// Run executes p on sess. The session's database resolves the plan's
// planar points; a point off the terrain returns an error wrapping
// ErrOffTerrain. The plan tree is annotated with actual costs in place.
func Run(ctx context.Context, sess *core.Session, p *sklang.Plan) (*Outcome, error) {
	sched, ok := Schedule(p.Sched)
	if !ok {
		return nil, fmt.Errorf("skexec: invalid schedule %d", p.Sched)
	}
	opt, err := CoreOptions(p.Options)
	if err != nil {
		return nil, fmt.Errorf("skexec: %w", err)
	}
	db := sess.DB()
	out := &Outcome{Plan: p}
	switch p.Algo {
	case sklang.AlgoMR3, sklang.AlgoEA:
		q, err := point(db, p.X, p.Y)
		if err != nil {
			return nil, err
		}
		var res core.Result
		if p.Algo == sklang.AlgoEA {
			res, err = sess.EACtx(ctx, q, p.K)
		} else {
			res, err = sess.MR3Ctx(ctx, q, p.K, sched, opt)
		}
		if err != nil {
			return nil, err
		}
		out.Result = applyFilter(p, res)
	case sklang.AlgoRange:
		q, err := point(db, p.X, p.Y)
		if err != nil {
			return nil, err
		}
		res, err := sess.SurfaceRangeCtx(ctx, q, p.Radius, sched, opt)
		if err != nil {
			return nil, err
		}
		out.Result = res
	case sklang.AlgoDistance:
		a, err := point(db, p.X, p.Y)
		if err != nil {
			return nil, err
		}
		b, err := point(db, p.X2, p.Y2)
		if err != nil {
			return nil, err
		}
		dr, res, err := sess.DistanceWithAccuracyCtx(ctx, a, b, p.Accuracy, sched)
		if err != nil {
			return nil, err
		}
		out.Distance = dr
		out.Result = res // cost shell only; no neighbours
	case sklang.AlgoContinuous:
		// One evaluation of the continuous query: the MR3 answer plus its
		// certified safe region. Registering a live subscription is
		// server-side state and stays with the serving layer.
		q, err := point(db, p.X, p.Y)
		if err != nil {
			return nil, err
		}
		res, sr, err := sess.MR3SafeCtx(ctx, q, p.K, sched, opt)
		if err != nil {
			return nil, err
		}
		out.Result = res
		out.Safe = sr
	default:
		return nil, fmt.Errorf("skexec: plan has unknown algorithm %q", p.Algo)
	}
	Annotate(p, out.Result.Cost)
	return out, nil
}

// point lifts (x, y) onto the terrain.
func point(db *core.TerrainDB, x, y float64) (mesh.SurfacePoint, error) {
	q, err := db.SurfacePointAt(geom.Vec2{X: x, Y: y})
	if err != nil {
		return mesh.SurfacePoint{}, fmt.Errorf("(%g, %g): %w: %v", x, y, ErrOffTerrain, err)
	}
	return q, nil
}

// applyFilter applies a k-NN plan's WITHIN post-filter: keep neighbours
// whose upper bound is inside the radius. The underlying scan is untouched
// — same candidates, same bounds, same cost — so the filtered result is a
// pure subsequence of the direct call's.
func applyFilter(p *sklang.Plan, res core.Result) core.Result {
	if !p.HasFilter {
		return res
	}
	kept := make([]core.Neighbor, 0, len(res.Neighbors))
	for _, n := range res.Neighbors {
		if n.UB <= p.Radius {
			kept = append(kept, n)
		}
	}
	if f := findOp(p.Root, "filter"); f != nil {
		f.Detail = fmt.Sprintf("kept %d of %d (ub ≤ %g)", len(kept), len(res.Neighbors), p.Radius)
	}
	res.Neighbors = kept
	return res
}

// Annotate overlays an executed query's cost onto the plan tree: each
// reported phase lands on its "phase:<name>" leaf (appended if the planner
// did not predict it — the engine's account wins), and every algorithm
// node on the path gets the actual totals.
func Annotate(p *sklang.Plan, cost stats.Cost) {
	if p.Root == nil {
		return
	}
	// The node owning the phase leaves: the root, except for continuous
	// plans whose phases belong to the inner mr3 evaluation.
	phases := p.Root
	if p.Algo == sklang.AlgoContinuous {
		if inner := p.Root.FindChild(string(sklang.AlgoMR3)); inner != nil {
			phases = inner
		}
	}
	for _, ph := range cost.Phases {
		leaf := findOp(phases, "phase:"+ph.Phase)
		if leaf == nil {
			leaf = &sklang.Node{Op: "phase:" + ph.Phase, Detail: "unplanned phase"}
			phases.Children = append(phases.Children, leaf)
		}
		w := WirePhase(ph)
		leaf.Phase = &w
	}
	total := &api.Cost{
		Pages:     cost.Pages(),
		CPUUs:     cost.CPU.Microseconds(),
		ElapsedUs: cost.Elapsed.Microseconds(),
	}
	phases.Cost = total
	if phases != p.Root {
		p.Root.Cost = total
	}
}

// WirePhase converts one stats.PhaseCost to its wire form.
func WirePhase(ph stats.PhaseCost) api.PlanPhase {
	return api.PlanPhase{
		WallUs:      ph.Wall.Microseconds(),
		PoolHits:    ph.PoolHits,
		PoolMisses:  ph.PoolMisses,
		RTreeVisits: ph.RTreeVisits,
		Relaxations: ph.Relaxations,
		UpperBounds: ph.UpperBounds,
		LowerBounds: ph.LowerBounds,
		Iterations:  ph.Iterations,
		Candidates:  ph.Candidates,
		Pages:       ph.Pages(),
	}
}

// findOp returns the first node (pre-order) with the given op.
func findOp(n *sklang.Node, op string) *sklang.Node {
	if n == nil {
		return nil
	}
	if n.Op == op {
		return n
	}
	for _, c := range n.Children {
		if f := findOp(c, op); f != nil {
			return f
		}
	}
	return nil
}
