package sklang

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"surfknn/internal/server/api"
)

// The cost-based planner. PlanStmt maps a parsed statement's predicate
// shape onto one of the engine's algorithms and emits a typed Plan tree:
// one root node per algorithm with one leaf per expected cost phase, each
// carrying an up-front page estimate from the Catalog's uniform-density
// model. After execution the executor overlays the actual per-phase
// stats.Cost onto the same nodes, which is what EXPLAIN renders as
// estimated-vs-actual.
//
// Decision table (see DESIGN.md "Query language & planner"):
//
//	SELECT (p) WITHIN r, RANGE          → range      (SurfaceRange)
//	SELECT k NEAREST, ACCURACY 1        → ea         (exact benchmark)
//	SELECT k NEAREST [ACCURACY a<1]     → mr3        (a pushes down Step2Accuracy)
//	SELECT k NEAREST ... WITHIN r       → mr3 + filter node (post-filter UB ≤ r)
//	DISTANCE a TO b [ACCURACY a]        → distance   (DistanceWithAccuracy)
//	SUBSCRIBE k FOLLOW p                → continuous (safe-region subscription)

// Algorithm names the engine algorithm a plan executes.
type Algorithm string

const (
	AlgoMR3        Algorithm = "mr3"
	AlgoEA         Algorithm = "ea"
	AlgoRange      Algorithm = "range"
	AlgoDistance   Algorithm = "distance"
	AlgoContinuous Algorithm = "continuous"
)

// Catalog is what the planner knows about the data it plans over: enough
// for uniform-density cost estimates, available on every serving layer
// (the server reads it off its TerrainDB, the coordinator off its manifest
// and shard health reports).
type Catalog struct {
	// Objects is the (approximate) live object count.
	Objects int
	// Faces is the terrain face count (0 when unknown, e.g. a coordinator
	// that has not verified its fleet yet).
	Faces int
	// Area is the terrain extent's planar area.
	Area float64
}

// Plan is one executable compiled statement. The scalar fields are the
// algorithm's arguments — already validated, with clause defaults applied —
// and Root is the cost-annotated plan tree.
type Plan struct {
	// Form is the statement form: "select", "range", "distance" or
	// "subscribe".
	Form string
	// Algo is the chosen algorithm.
	Algo Algorithm
	// Canonical is the canonical spelling of the planned statement (without
	// any EXPLAIN prefix) — the serving layers' cache key.
	Canonical string
	// Explain records an EXPLAIN prefix: execute, but answer with the
	// annotated plan instead of the bare result.
	Explain bool

	X, Y   float64 // query point (select/range/subscribe; distance: endpoint a)
	X2, Y2 float64 // distance: endpoint b
	K      int     // select k-NN / subscribe
	// Radius is the WITHIN distance: the range radius (AlgoRange) or the
	// post-filter bound (HasFilter on a k-NN plan).
	Radius    float64
	HasFilter bool
	// Accuracy is the distance form's target accuracy in (0, 1], default
	// applied (0.9, matching POST /v1/distance).
	Accuracy float64
	// Sched is the resolution schedule number in {1, 2, 3} (default 1).
	Sched int
	// Options carries the pushed-down engine options; nil when none.
	Options *api.Options

	// Root is the plan tree.
	Root *Node
}

// Node is one plan-tree node. The planner fills Op/Detail/EstPages; the
// executor fills Tiles (scatter plans), Phase (actual per-phase cost) and
// Cost (actual totals on algorithm nodes) after running the query.
type Node struct {
	// Op identifies the node: an Algorithm name at the root, "phase:<name>"
	// for a cost-phase leaf, "filter" for a post-filter step, "scatter:<op>"
	// / "rank:<step>" on coordinator plans.
	Op string
	// Detail is a human-oriented argument summary ("k=5 sched=s=2").
	Detail string
	// EstPages is the planner's page estimate for the subtree.
	EstPages int64
	// Tiles lists the tiles a scatter-gather execution touched for this
	// step; nil on single-node plans.
	Tiles []string
	// Phase is the executed query's actual cost for this phase leaf.
	Phase *api.PlanPhase
	// Cost is the executed query's actual total for this subtree.
	Cost *api.Cost
	// Children in execution order.
	Children []*Node
}

// PlanStmt compiles one parsed statement against cat. The returned error,
// when non-nil, is a *Error positioned at the offending clause.
func PlanStmt(st Stmt, cat Catalog) (*Plan, error) {
	switch s := st.(type) {
	case *ExplainStmt:
		p, err := PlanStmt(s.Query, cat)
		if err != nil {
			return nil, err
		}
		p.Explain = true
		return p, nil
	case *SelectStmt:
		return planSelect(s, cat)
	case *RangeStmt:
		return planRange(s.At, s.Within, s.WithinP, s.Using, s.String(), cat)
	case *DistanceStmt:
		return planDistance(s, cat)
	case *SubscribeStmt:
		return planSubscribe(s, cat)
	default:
		return nil, errf(st.Pos(), "", "cannot plan %T: unknown statement form", st)
	}
}

// Compile parses and plans src in one call — the front door the serving
// layers use.
func Compile(src string, cat Catalog) (*Plan, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return PlanStmt(st, cat)
}

func planSelect(s *SelectStmt, cat Catalog) (*Plan, error) {
	if !s.Nearest {
		// WITHIN-only SELECT is the range query in SELECT spelling.
		return planRange(s.At, s.Within, s.WithinP, s.Using, s.String(), cat)
	}
	p := &Plan{Form: "select", X: s.At.X, Y: s.At.Y, K: s.K, Canonical: s.String()}
	if err := applyUsing(p, s.Using, true); err != nil {
		return nil, err
	}
	if s.HasWithin {
		if !(s.Within > 0) {
			return nil, errf(s.WithinP, "", "WITHIN distance must be positive, got %s", fmtNum(s.Within))
		}
		p.HasFilter = true
		p.Radius = s.Within
	}
	switch {
	//lint:ignore float-eq ACCURACY 1 is a parsed literal sentinel, not computed
	case s.HasAccuracy && s.Accuracy == 1:
		// A demand for collapsed bounds: the exact EA algorithm. EA takes no
		// schedule or engine options — it always refines to the reference
		// metric — so pushed-down knobs would be silently dead; reject them.
		if len(s.Using) > 0 {
			o := s.Using[0]
			return nil, errf(o.KeyP, o.Key, "ACCURACY 1 selects the exact EA algorithm, which takes no USING options")
		}
		p.Algo = AlgoEA
	case s.HasAccuracy:
		if !(s.Accuracy > 0 && s.Accuracy < 1) {
			return nil, errf(s.AccuracyP, "", "ACCURACY must be in (0, 1], got %s", fmtNum(s.Accuracy))
		}
		p.Algo = AlgoMR3
		a := s.Accuracy
		opt := optionsOf(p)
		if opt.Step2Accuracy != nil {
			return nil, errf(s.AccuracyP, "", "ACCURACY conflicts with USING step2=... (set one)")
		}
		opt.Step2Accuracy = &a
	default:
		p.Algo = AlgoMR3
	}
	p.Root = buildKNNTree(p, cat)
	return p, nil
}

func planRange(at Point, radius float64, radiusP Position, using []Option, canonical string, cat Catalog) (*Plan, error) {
	if !(radius > 0) {
		return nil, errf(radiusP, "", "WITHIN distance must be positive, got %s", fmtNum(radius))
	}
	p := &Plan{Form: "range", Algo: AlgoRange, X: at.X, Y: at.Y, Radius: radius, Canonical: canonical}
	if err := applyUsing(p, using, true); err != nil {
		return nil, err
	}
	est := newEstimator(cat, p.Sched)
	cands := est.inRadius(radius)
	p.Root = algoNode(p, []*Node{
		phaseNode("range2d", "2-D circular candidate collection", est.rtree(cands)),
		phaseNode("refine", "LOD bound-refinement loop", est.rank(cands)),
		phaseNode("settle", "reference-distance settlement of straddlers", maxI64(1, cands/4)),
	})
	return p, nil
}

func planDistance(s *DistanceStmt, cat Catalog) (*Plan, error) {
	p := &Plan{
		Form: "distance", Algo: AlgoDistance, Canonical: s.String(),
		X: s.From.X, Y: s.From.Y, X2: s.To.X, Y2: s.To.Y,
		Accuracy: 0.9, // the /v1/distance default
	}
	if err := applyUsing(p, s.Using, false); err != nil {
		return nil, err
	}
	if s.HasAccuracy {
		if !(s.Accuracy > 0 && s.Accuracy <= 1) {
			return nil, errf(s.AccuracyP, "", "ACCURACY must be in (0, 1], got %s", fmtNum(s.Accuracy))
		}
		p.Accuracy = s.Accuracy
	}
	est := newEstimator(cat, p.Sched)
	p.Root = algoNode(p, []*Node{
		phaseNode("refine", "bound ladder walk until lb/ub ≥ accuracy", int64(est.steps)*4),
	})
	return p, nil
}

func planSubscribe(s *SubscribeStmt, cat Catalog) (*Plan, error) {
	p := &Plan{Form: "subscribe", Algo: AlgoContinuous, X: s.At.X, Y: s.At.Y, K: s.K, Canonical: s.String()}
	if err := applyUsing(p, s.Using, true); err != nil {
		return nil, err
	}
	inner := &Plan{Form: "select", Algo: AlgoMR3, X: p.X, Y: p.Y, K: p.K, Sched: p.Sched, Options: p.Options}
	mr3 := buildKNNTree(inner, cat)
	p.Root = algoNode(p, []*Node{mr3})
	p.Root.Detail += " safe-region certification over mr3"
	return p, nil
}

// buildKNNTree builds the phase tree of a k-NN plan (mr3 or ea, plus the
// optional post-filter step).
func buildKNNTree(p *Plan, cat Catalog) *Node {
	est := newEstimator(cat, p.Sched)
	if p.Algo == AlgoEA {
		// EA ranks every candidate at the reference metric: charge the full
		// ladder depth per candidate instead of the scheduled steps.
		est.steps = 8
	}
	k := p.K
	c2 := est.candAfterBound(k)
	children := []*Node{
		phaseNode("knn2d", "2-D k-NN filter on the object R-tree", est.rtree(int64(k))),
		phaseNode("rank-c1", "surface ranking of C1 (bound tightening)", est.rank(int64(k))),
		phaseNode("range2d", "2-D range collection with the step-2 bound", est.rtree(c2)),
		phaseNode("rank-c2", "surface ranking of C2 (final k-set)", est.rank(maxI64(0, c2-int64(k)))),
	}
	if p.HasFilter {
		children = append(children, &Node{
			Op:       "filter",
			Detail:   "keep neighbours with ub ≤ " + fmtNum(p.Radius),
			EstPages: 0, // pure post-processing, no I/O
		})
	}
	return algoNode(p, children)
}

// algoNode builds an algorithm root over its phase children, summing their
// estimates.
func algoNode(p *Plan, children []*Node) *Node {
	n := &Node{Op: string(p.Algo), Detail: planDetail(p), Children: children}
	for _, c := range children {
		n.EstPages += c.EstPages
	}
	return n
}

func phaseNode(phase, detail string, est int64) *Node {
	return &Node{Op: "phase:" + phase, Detail: detail, EstPages: maxI64(1, est)}
}

// planDetail summarizes the plan's arguments for the root node.
func planDetail(p *Plan) string {
	var parts []string
	switch p.Algo {
	case AlgoMR3, AlgoEA, AlgoContinuous:
		parts = append(parts, "k="+strconv.Itoa(p.K))
	case AlgoRange:
		parts = append(parts, "r="+fmtNum(p.Radius))
	case AlgoDistance:
		parts = append(parts, "accuracy="+fmtNum(p.Accuracy))
	}
	if p.Algo != AlgoEA {
		parts = append(parts, fmt.Sprintf("sched=s=%d", p.Sched))
	}
	if p.HasFilter {
		parts = append(parts, "within="+fmtNum(p.Radius))
	}
	if o := p.Options; o != nil && o.Step2Accuracy != nil {
		parts = append(parts, "step2_accuracy="+fmtNum(*o.Step2Accuracy))
	}
	return strings.Join(parts, " ")
}

// applyUsing validates and applies a USING clause onto the plan. engineOpts
// gates the knobs only the candidate-ranking algorithms honour (the
// distance form takes just the schedule).
func applyUsing(p *Plan, using []Option, engineOpts bool) *Error {
	seen := make(map[string]bool, len(using))
	for _, o := range using {
		if seen[o.Key] {
			return errf(o.KeyP, o.Key, "duplicate option %q", o.Key)
		}
		seen[o.Key] = true
		switch o.Key {
		case "s":
			//lint:ignore float-eq s is a parsed literal validated against exact integers
			if !o.IsNum || (o.Num != 1 && o.Num != 2 && o.Num != 3) {
				return errf(o.ValueP, o.String(), "s must be 1, 2 or 3")
			}
			p.Sched = int(o.Num)
		case "step2":
			if !engineOpts {
				return errf(o.KeyP, o.Key, "option %q does not apply to this query form", o.Key)
			}
			if !o.IsNum || !(o.Num >= 0 && o.Num <= 1) {
				return errf(o.ValueP, o.String(), "step2 must be a fraction in [0, 1]")
			}
			v := o.Num
			optionsOf(p).Step2Accuracy = &v
		case "overlap":
			if !engineOpts {
				return errf(o.KeyP, o.Key, "option %q does not apply to this query form", o.Key)
			}
			if !o.IsNum || !(o.Num >= 0 && o.Num <= 1) {
				return errf(o.ValueP, o.String(), "overlap must be a fraction in [0, 1]")
			}
			v := o.Num
			optionsOf(p).OverlapThreshold = &v
		case "io", "dummy_lb":
			if !engineOpts {
				return errf(o.KeyP, o.Key, "option %q does not apply to this query form", o.Key)
			}
			b, ok := boolWord(o)
			if !ok {
				return errf(o.ValueP, o.String(), "%s must be on, off, true or false", o.Key)
			}
			if o.Key == "io" {
				optionsOf(p).IOIntegration = &b
			} else {
				optionsOf(p).DummyLB = &b
			}
		default:
			return errf(o.KeyP, o.Key, "unknown option %q (known: s, step2, overlap, io, dummy_lb)", o.Key)
		}
	}
	if p.Sched == 0 {
		p.Sched = 1
	}
	return nil
}

func optionsOf(p *Plan) *api.Options {
	if p.Options == nil {
		p.Options = &api.Options{}
	}
	return p.Options
}

func boolWord(o Option) (bool, bool) {
	if o.IsNum {
		return false, false
	}
	switch o.Word {
	case "on", "true":
		return true, true
	case "off", "false":
		return false, true
	}
	return false, false
}

// estimator is the uniform-density cost model: objects spread evenly over
// the extent, an R-tree fanout of 64, and two terrain-page fetches (one
// DMTM, one MSDN region) per candidate per refinement step. The numbers
// exist to be compared against actuals in EXPLAIN output, not to be right.
type estimator struct {
	n       int64   // objects
	density float64 // objects per planar area
	steps   int     // refinement iterations of the schedule
}

// schedSteps mirrors core.S1/S2/S3.Steps() (pinned by a skexec test so the
// two cannot drift).
var schedSteps = map[int]int{1: 6, 2: 4, 3: 3}

// SchedSteps reports the refinement-step count the cost model assumes for
// schedule s=n (0 for unknown n). Exported so the skexec equivalence suite
// can pin it against the real core schedules without sklang importing core.
func SchedSteps(n int) int { return schedSteps[n] }

func newEstimator(cat Catalog, sched int) estimator {
	e := estimator{n: int64(cat.Objects), steps: schedSteps[sched]}
	if e.steps == 0 {
		e.steps = schedSteps[1]
	}
	if cat.Area > 0 {
		e.density = float64(cat.Objects) / cat.Area
	}
	return e
}

// rtree estimates one R-tree traversal returning m items: the root-to-leaf
// descent plus the leaf pages the result set spans.
func (e estimator) rtree(m int64) int64 {
	if m > e.n {
		m = e.n
	}
	descent := int64(1)
	for n := e.n; n > 64; n /= 64 {
		descent++
	}
	return descent + (m+63)/64
}

// rank estimates ranking m candidates: two terrain-page fetches per
// candidate per refinement step (grouping makes the real number smaller;
// the bias is uniform, so est-vs-actual stays comparable across plans).
func (e estimator) rank(m int64) int64 {
	if m > e.n {
		m = e.n
	}
	return m * int64(e.steps) * 2
}

// candAfterBound estimates |C2|: the objects inside the step-2 upper bound,
// which for uniform density is ~(stretch·r̂)² π density with r̂ the expected
// k-th planar-neighbour radius — i.e. stretch²·k, stretch 1.5.
func (e estimator) candAfterBound(k int) int64 {
	c := int64(math.Ceil(2.25 * float64(k)))
	if c > e.n {
		c = e.n
	}
	if c < int64(k) {
		c = int64(k)
	}
	return c
}

// inRadius estimates the candidates a planar radius-r disc collects.
func (e estimator) inRadius(r float64) int64 {
	c := int64(math.Ceil(math.Pi * r * r * e.density))
	if c > e.n {
		c = e.n
	}
	return maxI64(1, c)
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
