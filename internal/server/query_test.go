package server

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"surfknn/internal/geom"
	"surfknn/internal/server/api"
)

// neighborsJSON extracts the raw `"neighbors":[...]` bytes from a response
// body so the SKQL/point-route comparison is over the actual wire bytes,
// not a decoded-and-re-encoded approximation.
var neighborsRe = regexp.MustCompile(`"neighbors":\[[^\]]*\]`)

func neighborsJSON(t *testing.T, body string) string {
	t.Helper()
	m := neighborsRe.FindString(body)
	if m == "" {
		t.Fatalf("no neighbors array in body: %s", body)
	}
	return m
}

// TestQueryMatchesPointRoutes is the language-layer fidelity check: each
// SKQL form must produce the byte-identical neighbours array the hand-built
// point route returns for the same parameters.
func TestQueryMatchesPointRoutes(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, q, path, body string
	}{
		{"mr3", `SELECT k=5 NEAREST (800, 800) USING s=2`, "/v1/knn", `{"x":800,"y":800,"k":5,"sched":2}`},
		{"range", `RANGE (800, 800) WITHIN 500`, "/v1/range", `{"x":800,"y":800,"radius":500}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			qw := post(t, s, "/v1/query", `{"q":"`+tc.q+`"}`)
			if qw.Code != http.StatusOK {
				t.Fatalf("query status = %d\n%s", qw.Code, qw.Body.String())
			}
			pw := post(t, s, tc.path, tc.body)
			if pw.Code != http.StatusOK {
				t.Fatalf("point route status = %d\n%s", pw.Code, pw.Body.String())
			}
			got := neighborsJSON(t, qw.Body.String())
			want := neighborsJSON(t, pw.Body.String())
			if got != want {
				t.Errorf("neighbours differ:\nquery: %s\npoint: %s", got, want)
			}
		})
	}
}

// TestQueryEA pins ACCURACY 1 → EA: there is no EA point route (it is the
// paper's benchmark), so the check is against the engine directly, bit for
// bit.
func TestQueryEA(t *testing.T) {
	db := getDB(t)
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/query", `{"q":"SELECT k=5 NEAREST (800, 800) ACCURACY 1"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", w.Code, w.Body.String())
	}
	var resp api.QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Algorithm != "ea" {
		t.Fatalf("algorithm = %q, want ea", resp.Algorithm)
	}
	q, err := db.SurfacePointAt(geom.Vec2{X: 800, Y: 800})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.NewSession().EACtx(context.Background(), q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Neighbors) != len(direct.Neighbors) {
		t.Fatalf("got %d neighbours, want %d", len(resp.Result.Neighbors), len(direct.Neighbors))
	}
	for i, n := range direct.Neighbors {
		h := resp.Result.Neighbors[i]
		if h.ID != n.Object.ID ||
			math.Float64bits(float64(h.LB)) != math.Float64bits(n.LB) ||
			math.Float64bits(float64(h.UB)) != math.Float64bits(n.UB) {
			t.Errorf("neighbour %d not bit-identical: %+v vs %+v", i, h, n)
		}
	}
}

// TestQueryDistance pins the DISTANCE form against /v1/distance: identical
// bound strings (api.Float shortest round-trip) and iteration count.
func TestQueryDistance(t *testing.T) {
	s := newTestServer(t, Config{})
	qw := post(t, s, "/v1/query", `{"q":"DISTANCE (100, 100) TO (1400, 1400) ACCURACY 0.9"}`)
	if qw.Code != http.StatusOK {
		t.Fatalf("query status = %d\n%s", qw.Code, qw.Body.String())
	}
	var qresp api.QueryResponse
	if err := json.Unmarshal(qw.Body.Bytes(), &qresp); err != nil {
		t.Fatal(err)
	}
	if qresp.Form != "select" && qresp.Form != "distance" {
		t.Fatalf("form = %q", qresp.Form)
	}
	if qresp.Distance == nil {
		t.Fatalf("no distance payload: %s", qw.Body.String())
	}
	pw := post(t, s, "/v1/distance", `{"x":100,"y":100,"x2":1400,"y2":1400,"accuracy":0.9}`)
	if pw.Code != http.StatusOK {
		t.Fatalf("point route status = %d\n%s", pw.Code, pw.Body.String())
	}
	var presp api.DistanceResponse
	if err := json.Unmarshal(pw.Body.Bytes(), &presp); err != nil {
		t.Fatal(err)
	}
	d := *qresp.Distance
	if d.LB != presp.LB || d.UB != presp.UB || d.Iterations != presp.Iterations {
		t.Errorf("distance differs:\nquery: %+v\npoint: %+v", d, presp)
	}
}

// TestQueryCache pins the cache contract: select/range statements hit the
// epoch-scoped cache keyed on the canonical spelling, so two different
// spellings of the same statement share one entry.
func TestQueryCache(t *testing.T) {
	s := newTestServer(t, Config{})
	first := post(t, s, "/v1/query", `{"q":"SELECT k=5 NEAREST (800, 800)"}`)
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}
	// Same statement, scrambled case and spacing: canonicalisation must
	// land on the cached entry.
	second := post(t, s, "/v1/query", `{"q":"select K = 5 nearest(800,800)"}`)
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit\n%s", got, second.Body.String())
	}
	if first.Body.String() != second.Body.String() {
		t.Error("cache hit served different bytes")
	}
}

// TestQueryParseErrorPosition pins satellite 4's server half: a parse error
// answers 400 with the 1-based position and offending token in the
// envelope.
func TestQueryParseErrorPosition(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/query", `{"q":"SELECT k=5 NEAREST (800 800)"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400\n%s", w.Code, w.Body.String())
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	e := env.Error
	if e.Code != api.CodeBadRequest {
		t.Errorf("code = %q", e.Code)
	}
	if e.Line != 1 || e.Col != 25 || e.Token != "800" {
		t.Errorf("position = %d:%d token %q, want 1:25 token \"800\"", e.Line, e.Col, e.Token)
	}
	if !strings.Contains(e.Message, "1:25") {
		t.Errorf("message %q does not carry the position", e.Message)
	}
}

// TestQueryExplainStatementRejected: the EXPLAIN prefix belongs to
// /v1/explain; /v1/query points the client there.
func TestQueryExplainStatementRejected(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/query", `{"q":"EXPLAIN SELECT k=5 NEAREST (800, 800)"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400\n%s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "/v1/explain") {
		t.Errorf("error does not redirect to /v1/explain: %s", w.Body.String())
	}
}

// TestQuerySubscribe pins the SUBSCRIBE form end to end: it registers a
// real subscription whose id works against the /v1/subscribe/{id} routes.
func TestQuerySubscribe(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/query", `{"q":"SUBSCRIBE k=3 FOLLOW (830, 770)"}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", w.Code, w.Body.String())
	}
	var resp api.QueryResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Form != "subscribe" || resp.Algorithm != "continuous" {
		t.Fatalf("form/algorithm = %q/%q", resp.Form, resp.Algorithm)
	}
	if resp.Subscription == nil || resp.Subscription.ID == 0 {
		t.Fatalf("no subscription in response: %s", w.Body.String())
	}
	if len(resp.Result.Neighbors) != 3 {
		t.Fatalf("subscription answered %d neighbours, want 3", len(resp.Result.Neighbors))
	}
	if got := w.Header().Get("X-Cache"); got != "" {
		t.Errorf("subscribe response carries X-Cache %q; must never be cached", got)
	}
	// The id is live: a move against the standard subscription routes works.
	mw := post(t, s, "/v1/subscribe/"+itoa(resp.Subscription.ID)+"/move", `{"x":830,"y":770}`)
	if mw.Code != http.StatusOK {
		t.Fatalf("move on SKQL-created subscription: %d\n%s", mw.Code, mw.Body.String())
	}
}

func itoa(id uint64) string {
	b, _ := json.Marshal(id)
	return string(b)
}

// TestExplainEndpoint pins the acceptance criterion: /v1/explain returns a
// plan tree whose root names the algorithm and whose phase leaves carry the
// engine's actual per-phase cost counters.
func TestExplainEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	for _, q := range []string{
		`SELECT k=5 NEAREST (800, 800) USING s=2`,
		`EXPLAIN SELECT k=5 NEAREST (800, 800) USING s=2`, // prefix optional, same answer
	} {
		w := post(t, s, "/v1/explain", `{"q":"`+q+`"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d\n%s", w.Code, w.Body.String())
		}
		var resp api.ExplainResponse
		if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Algorithm != "mr3" || resp.Plan.Op != "mr3" {
			t.Fatalf("algorithm/root = %q/%q, want mr3", resp.Algorithm, resp.Plan.Op)
		}
		if resp.Plan.Cost == nil || resp.Plan.Cost.Pages == 0 {
			t.Fatalf("root not annotated with actual cost: %+v", resp.Plan.Cost)
		}
		phases := 0
		for _, ch := range resp.Plan.Children {
			if !strings.HasPrefix(ch.Op, "phase:") {
				continue
			}
			phases++
			if ch.Phase == nil {
				t.Errorf("phase leaf %s has no actuals", ch.Op)
			} else if ch.EstPages <= 0 {
				t.Errorf("phase leaf %s has no estimate", ch.Op)
			}
		}
		if phases != 4 {
			t.Errorf("plan has %d phase leaves, want 4", phases)
		}
		if !strings.Contains(resp.Text, "mr3") || !strings.Contains(resp.Text, "act=") {
			t.Errorf("rendered text missing algorithm or actuals:\n%s", resp.Text)
		}
		if resp.Query != "SELECT k=5 NEAREST (800, 800) USING s=2" {
			t.Errorf("canonical query = %q", resp.Query)
		}
	}
}

// TestExplainConsole: the embedded console page is served.
func TestExplainConsole(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/debug/explain", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(w.Body.String(), "/v1/explain") {
		t.Error("console page does not target /v1/explain")
	}
}
