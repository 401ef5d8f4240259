package front

import (
	"math"
	"net/http"
	"time"

	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
)

// shape renders a route's wire body from an answer; its name scopes the
// route's cache entries, since two routes answering one plan send
// different bytes.
type shape struct {
	name    string
	explain bool // the body is the executed plan tree
	body    func(*sklang.Plan, *Answer) any
}

var (
	// shapeResult is the bare neighbours+cost body of /v1/knn and /v1/range.
	shapeResult = shape{name: "result", body: func(_ *sklang.Plan, a *Answer) any { return a.Query.Result }}
	// shapeDistance is the /v1/distance body.
	shapeDistance = shape{name: "distance", body: func(_ *sklang.Plan, a *Answer) any { return a.Query.Distance }}
	// shapeSubscribe is the /v1/subscribe body.
	shapeSubscribe = shape{name: "subscribe", body: func(_ *sklang.Plan, a *Answer) any { return a.Query.Subscription }}
	// shapeQuery is the /v1/query body: the form-appropriate payloads
	// under the statement's form and algorithm.
	shapeQuery = shape{name: "query", body: func(_ *sklang.Plan, a *Answer) any { return a.Query }}
	// shapeExplain is the /v1/explain body: the executed plan tree.
	shapeExplain = shape{name: "explain", explain: true, body: func(p *sklang.Plan, a *Answer) any {
		return api.ExplainResponse{
			Query:     p.Canonical,
			Form:      p.Form,
			Algorithm: string(p.Algo),
			Plan:      a.Plan,
			Text:      sklang.RenderNode(a.Plan),
			Epoch:     a.Epoch,
		}
	}}
)

// exec hands a compiled plan to the back end. Everything except explain
// and subscribe answers is cacheable under the route shape plus the plan's
// canonical spelling.
func (f *front) exec(r *http.Request, plan *sklang.Plan, timeout api.Duration, sh shape) (Reply, error) {
	req := Request{
		Plan:    plan,
		Timeout: time.Duration(timeout),
		Explain: sh.explain,
		Encode: func(a *Answer) ([]byte, error) {
			a.Query.Form, a.Query.Algorithm = plan.Form, string(plan.Algo)
			return Encode(sh.body(plan, a))
		},
	}
	if !req.Explain && plan.Algo != sklang.AlgoContinuous {
		req.Key = sh.name + "|" + plan.Canonical
	}
	rep, err := f.ex.Execute(r.Context(), req)
	if err == nil {
		count(f.n.Queries)
	}
	return rep, err
}

// plan compiles a statement the front built from a typed body. The body's
// fields were validated with the typed routes' own messages first, so a
// planner refusal here is still the client's error and maps to 400.
func (f *front) plan(r *http.Request, st sklang.Stmt, timeout api.Duration, sh shape) (Reply, error) {
	plan, err := sklang.PlanStmt(st, f.ex.Catalog())
	if err != nil {
		return Reply{}, err
	}
	return f.exec(r, plan, timeout, sh)
}

// compile parses and plans an SKQL statement.
func (f *front) compile(q string) (*sklang.Plan, error) {
	plan, err := sklang.Compile(q, f.ex.Catalog())
	if err != nil {
		return nil, err
	}
	if plan.K > MaxK {
		return nil, CheckK(plan.K)
	}
	return plan, nil
}

// --- validation: every bound and message of the typed bodies. Exported for
// the server's shard-fabric routes, whose bodies share the fields. ---

// CheckK bounds a requested k.
func CheckK(k int) error {
	if k < 1 || k > MaxK {
		return BadRequest("k must be in [1, %d], got %d", MaxK, k)
	}
	return nil
}

// CheckRadius vets a public range radius.
func CheckRadius(r float64) error {
	if !(r > 0) || math.IsInf(r, 1) {
		return BadRequest("radius must be a positive finite distance, got %g", r)
	}
	return nil
}

// CheckTuning vets the schedule number (0 = default) and option fractions.
func CheckTuning(sched int, o *api.Options) error {
	if sched < 0 || sched > 3 {
		return BadRequest("sched must be 1, 2 or 3, got %d", sched)
	}
	if o == nil {
		return nil
	}
	unit := func(name string, v *float64) error {
		if v != nil && !(*v >= 0 && *v <= 1) {
			return BadRequest("invalid options: %s %g outside [0,1]", name, *v)
		}
		return nil
	}
	if err := unit("step2_accuracy", o.Step2Accuracy); err != nil {
		return err
	}
	return unit("overlap_threshold", o.OverlapThreshold)
}

// using spells a typed body's schedule and options as a USING clause, in a
// fixed order so equal bodies share one canonical statement.
func using(sched int, o *api.Options) []sklang.Option {
	var u []sklang.Option
	num := func(key string, v float64) {
		u = append(u, sklang.Option{Key: key, Num: v, IsNum: true})
	}
	flag := func(key string, v *bool) {
		if v == nil {
			return
		}
		word := "off"
		if *v {
			word = "on"
		}
		u = append(u, sklang.Option{Key: key, Word: word})
	}
	if sched != 0 {
		num("s", float64(sched))
	}
	if o == nil {
		return u
	}
	if o.Step2Accuracy != nil {
		num("step2", *o.Step2Accuracy)
	}
	if o.OverlapThreshold != nil {
		num("overlap", *o.OverlapThreshold)
	}
	flag("io", o.IOIntegration)
	flag("dummy_lb", o.DummyLB)
	return u
}

// --- the typed query routes: body → statement → plan ---

func (f *front) knn(r *http.Request) (Reply, error) {
	var req api.KNNRequest
	if err := Decode(r, &req); err != nil {
		return Reply{}, err
	}
	if err := CheckK(req.K); err != nil {
		return Reply{}, err
	}
	if err := CheckTuning(req.Sched, req.Options); err != nil {
		return Reply{}, err
	}
	return f.plan(r, &sklang.SelectStmt{
		Nearest: true, K: req.K, At: sklang.Point{X: req.X, Y: req.Y},
		Using: using(req.Sched, req.Options),
	}, req.Timeout, shapeResult)
}

func (f *front) rangeQuery(r *http.Request) (Reply, error) {
	var req api.RangeRequest
	if err := Decode(r, &req); err != nil {
		return Reply{}, err
	}
	if err := CheckRadius(req.Radius); err != nil {
		return Reply{}, err
	}
	if err := CheckTuning(req.Sched, req.Options); err != nil {
		return Reply{}, err
	}
	return f.plan(r, &sklang.RangeStmt{
		At: sklang.Point{X: req.X, Y: req.Y}, Within: req.Radius,
		Using: using(req.Sched, req.Options),
	}, req.Timeout, shapeResult)
}

func (f *front) distance(r *http.Request) (Reply, error) {
	var req api.DistanceRequest
	if err := Decode(r, &req); err != nil {
		return Reply{}, err
	}
	// Zero is "absent": the planner applies the 0.9 default.
	if a := req.Accuracy; a != 0 && !(a > 0 && a <= 1) {
		return Reply{}, BadRequest("accuracy must be in (0, 1], got %g", a)
	}
	if err := CheckTuning(req.Sched, nil); err != nil {
		return Reply{}, err
	}
	return f.plan(r, &sklang.DistanceStmt{
		From: sklang.Point{X: req.X, Y: req.Y}, To: sklang.Point{X: req.X2, Y: req.Y2},
		Using:    using(req.Sched, nil),
		Accuracy: req.Accuracy, HasAccuracy: req.Accuracy != 0,
	}, req.Timeout, shapeDistance)
}

func (f *front) subscribe(r *http.Request) (Reply, error) {
	var req api.SubscribeRequest
	if err := Decode(r, &req); err != nil {
		return Reply{}, err
	}
	if err := CheckK(req.K); err != nil {
		return Reply{}, err
	}
	if err := CheckTuning(req.Sched, req.Options); err != nil {
		return Reply{}, err
	}
	return f.plan(r, &sklang.SubscribeStmt{
		K: req.K, At: sklang.Point{X: req.X, Y: req.Y},
		Using: using(req.Sched, req.Options),
	}, req.Timeout, shapeSubscribe)
}

// --- the SKQL routes ---

func (f *front) query(r *http.Request) (Reply, error) {
	var req api.QueryRequest
	if err := Decode(r, &req); err != nil {
		return Reply{}, err
	}
	plan, err := f.compile(req.Q)
	if err != nil {
		return Reply{}, err
	}
	if plan.Explain {
		return Reply{}, BadRequest("EXPLAIN statements are answered by POST /v1/explain")
	}
	return f.exec(r, plan, req.Timeout, shapeQuery)
}

// explain executes the statement (EXPLAIN prefix optional) and answers
// with the annotated plan. The route exists to measure, so it never serves
// from or fills a cache.
func (f *front) explain(r *http.Request) (Reply, error) {
	var req api.ExplainRequest
	if err := Decode(r, &req); err != nil {
		return Reply{}, err
	}
	plan, err := f.compile(req.Q)
	if err != nil {
		return Reply{}, err
	}
	return f.exec(r, plan, req.Timeout, shapeExplain)
}

// --- object updates and health ---

func (f *front) upsert(r *http.Request) (Reply, error) {
	var req api.UpsertRequest
	if err := Decode(r, &req); err != nil {
		return Reply{}, err
	}
	if len(req.Objects) == 0 {
		return Reply{}, BadRequest("objects must contain at least one object")
	}
	if len(req.Objects) > MaxUpdateBatch {
		return Reply{}, BadRequest("batch of %d objects exceeds the limit of %d", len(req.Objects), MaxUpdateBatch)
	}
	for i, o := range req.Objects {
		if o.ID == nil {
			return Reply{}, BadRequest("objects[%d]: missing id", i)
		}
	}
	res, err := f.ex.Upsert(r.Context(), req)
	return Reply{Value: res, Epoch: res.Epoch}, err
}

func (f *front) remove(r *http.Request) (Reply, error) {
	var req api.DeleteRequest
	if err := Decode(r, &req); err != nil {
		return Reply{}, err
	}
	if len(req.IDs) == 0 {
		return Reply{}, BadRequest("ids must contain at least one object id")
	}
	if len(req.IDs) > MaxUpdateBatch {
		return Reply{}, BadRequest("batch of %d ids exceeds the limit of %d", len(req.IDs), MaxUpdateBatch)
	}
	res, err := f.ex.Delete(r.Context(), req)
	return Reply{Value: res, Epoch: res.Epoch}, err
}

// healthz bypasses everything a query goes through: a saturated back end is
// alive, and a health check must say so.
func (f *front) healthz(r *http.Request) (Reply, error) {
	hz, err := f.ex.Healthz(r.Context())
	return Reply{Value: hz, Epoch: hz.Epoch}, err
}
