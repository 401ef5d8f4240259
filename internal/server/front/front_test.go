package front

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"surfknn/internal/obs"
	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
)

// fakeExec records the last request a route handed over and answers with a
// canned subscription-capable answer.
type fakeExec struct{ last Request }

var testCatalog = sklang.Catalog{Objects: 60, Faces: 512, Area: 1600 * 1600}

func (f *fakeExec) Catalog() sklang.Catalog { return testCatalog }

func (f *fakeExec) Execute(_ context.Context, req Request) (Reply, error) {
	f.last = req
	ans := Answer{Epoch: 7}
	ans.Query.Result = api.Result{Neighbors: []api.Neighbor{}}
	ans.Query.Distance = &api.DistanceResponse{}
	ans.Query.Subscription = &api.SubscribeResponse{ID: 1}
	body, err := req.Encode(&ans)
	return Reply{Body: body, Epoch: ans.Epoch}, err
}

func (f *fakeExec) Upsert(context.Context, api.UpsertRequest) (api.UpdateResponse, error) {
	return api.UpdateResponse{}, nil
}

func (f *fakeExec) Delete(context.Context, api.DeleteRequest) (api.DeleteResponse, error) {
	return api.DeleteResponse{}, nil
}

func (f *fakeExec) Healthz(context.Context) (api.Healthz, error) {
	return api.Healthz{Status: "ok"}, nil
}

// serverRoutes supplies a stub for every back-end route of the table, the
// way a server does.
func serverRoutes() map[string]HandlerFunc {
	own := map[string]HandlerFunc{}
	for _, rt := range Routes {
		if rt.serve == nil && rt.raw == nil {
			own[rt.Pattern] = func(*http.Request) (Reply, error) { return Reply{Value: api.UnsubscribeResponse{}}, nil }
		}
	}
	return own
}

func do(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, strings.NewReader(body)))
	return w
}

// TestTypedRoutesBuildTheSKQLPlan: the plan a typed route constructs from
// its body is the plan its SKQL spelling compiles to — form, algorithm,
// every scalar, options, plan tree and canonical cache key.
func TestTypedRoutesBuildTheSKQLPlan(t *testing.T) {
	cases := []struct {
		name, path, body, skql string
		algo                   sklang.Algorithm
	}{
		{"knn", "/v1/knn", `{"x":800,"y":810.5,"k":5}`,
			`SELECT k=5 NEAREST (800, 810.5)`, sklang.AlgoMR3},
		{"knn sched+options", "/v1/knn",
			`{"x":800,"y":800,"k":5,"sched":2,"options":{"step2_accuracy":0.5,"overlap_threshold":0.25,"io_integration":false,"dummy_lb":true}}`,
			`SELECT k=5 NEAREST (800, 800) USING s=2, step2=0.5, overlap=0.25, io=off, dummy_lb=on`, sklang.AlgoMR3},
		// An explicit step2_accuracy of 1 is a tuning value, not a demand
		// for exactness: only ACCURACY 1 selects EA.
		{"knn step2=1 stays mr3", "/v1/knn", `{"x":800,"y":800,"k":3,"options":{"step2_accuracy":1}}`,
			`SELECT k=3 NEAREST (800, 800) USING step2=1`, sklang.AlgoMR3},
		{"range", "/v1/range", `{"x":800,"y":800,"radius":500,"sched":3}`,
			`RANGE (800, 800) WITHIN 500 USING s=3`, sklang.AlgoRange},
		{"distance default accuracy", "/v1/distance", `{"x":100,"y":100,"x2":1400,"y2":1400}`,
			`DISTANCE (100, 100) TO (1400, 1400)`, sklang.AlgoDistance},
		{"distance", "/v1/distance", `{"x":100,"y":100,"x2":1400,"y2":1400,"accuracy":0.95,"sched":2}`,
			`DISTANCE (100, 100) TO (1400, 1400) USING s=2 ACCURACY 0.95`, sklang.AlgoDistance},
		{"subscribe", "/v1/subscribe", `{"x":830,"y":770,"k":3,"options":{"dummy_lb":false}}`,
			`SUBSCRIBE k=3 FOLLOW (830, 770) USING dummy_lb=off`, sklang.AlgoContinuous},
	}
	ex := &fakeExec{}
	h := Handler(ex, Counters{}, serverRoutes())
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if w := do(h, http.MethodPost, tc.path, tc.body); w.Code != http.StatusOK {
				t.Fatalf("status = %d\n%s", w.Code, w.Body.String())
			}
			want, err := sklang.Compile(tc.skql, testCatalog)
			if err != nil {
				t.Fatal(err)
			}
			got := ex.last.Plan
			if got.Algo != tc.algo {
				t.Errorf("algorithm = %q, want %q", got.Algo, tc.algo)
			}
			if got.Canonical != want.Canonical {
				t.Errorf("canonical = %q, want %q", got.Canonical, want.Canonical)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("typed plan differs from the compiled statement:\ntyped: %+v\nskql:  %+v", got, want)
			}
			cacheable := tc.algo != sklang.AlgoContinuous
			if (ex.last.Key != "") != cacheable {
				t.Errorf("cache key = %q, cacheable = %v", ex.last.Key, cacheable)
			}
		})
	}
}

// TestRouteTable: both surfaces are generated from the one table — a server
// answers every row, a coordinator answers exactly the rows not marked
// ServerOnly, and a row/handler mismatch cannot be constructed.
func TestRouteTable(t *testing.T) {
	server := Handler(&fakeExec{}, Counters{}, serverRoutes())
	coord := Handler(&fakeExec{}, Counters{}, nil)
	offered := func(h http.Handler, rt Route) bool {
		method, path, _ := strings.Cut(rt.Pattern, " ")
		w := do(h, method, strings.ReplaceAll(path, "{id}", "1"), `{}`)
		var env api.ErrorEnvelope
		_ = json.Unmarshal(w.Body.Bytes(), &env)
		return !(w.Code == http.StatusNotFound && strings.HasPrefix(env.Error.Message, "no such endpoint"))
	}
	for _, rt := range Routes {
		if !offered(server, rt) {
			t.Errorf("server does not offer %s", rt.Pattern)
		}
		if got := offered(coord, rt); got == rt.ServerOnly {
			t.Errorf("coordinator offers %s = %v, table says ServerOnly = %v", rt.Pattern, got, rt.ServerOnly)
		}
	}

	mustPanic := func(name string, own map[string]HandlerFunc) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: Handler did not panic", name)
			}
		}()
		Handler(&fakeExec{}, Counters{}, own)
	}
	missing := serverRoutes()
	delete(missing, "POST /v1/shard/knn")
	mustPanic("a table row without a handler", missing)
	extra := serverRoutes()
	extra["POST /v1/nowhere"] = extra["POST /v1/shard/knn"]
	mustPanic("a handler without a table row", extra)
}

// TestRequestID pins the front's request ids: a sane client id is adopted
// and echoed, reaches the back end through the context, and a missing or
// unusable one is replaced by a fresh id, distinct per request.
func TestRequestID(t *testing.T) {
	var seen string
	ex := &ctxExec{seen: &seen}
	h := Handler(ex, Counters{}, nil)
	send := func(id string) string {
		t.Helper()
		r := httptest.NewRequest(http.MethodPost, "/v1/knn", strings.NewReader(`{"x":800,"y":800,"k":3}`))
		if id != "" {
			r.Header.Set(obs.RequestIDHeader, id)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Fatalf("knn: %d %s", w.Code, w.Body.String())
		}
		got := w.Header().Get(obs.RequestIDHeader)
		if got != seen {
			t.Fatalf("echoed id %q, back end saw %q", got, seen)
		}
		return got
	}
	if got := send("client-7"); got != "client-7" {
		t.Errorf("client id replaced by %q", got)
	}
	a, b := send(""), send("has space")
	if a == "" || b == "" || a == b || b == "has space" {
		t.Errorf("generated ids %q, %q: want two distinct fresh ids", a, b)
	}
	if got := send(strings.Repeat("x", 129)); len(got) > 128 {
		t.Errorf("an overlong client id was adopted")
	}
}

// ctxExec is fakeExec recording the request id its context carries.
type ctxExec struct {
	fakeExec
	seen *string
}

func (c *ctxExec) Execute(ctx context.Context, req Request) (Reply, error) {
	*c.seen = obs.RequestID(ctx)
	return c.fakeExec.Execute(ctx, req)
}
