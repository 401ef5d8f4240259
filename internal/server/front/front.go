// Package front is the one public HTTP front door of surfknn, shared by the
// standalone server (internal/server) and the scatter-gather coordinator
// (internal/shard). It owns the whole wire contract above the back ends:
// the route table, body discipline (bounded, unknown fields and trailing
// data rejected), every request bound and validation message, SKQL
// compilation, the error envelope and the single error→status mapping.
//
// Every query route is a plan constructor. The typed routes build the
// sklang statement their body spells (POST /v1/knn → SelectStmt, /v1/range
// → RangeStmt, /v1/distance → DistanceStmt, /v1/subscribe → SubscribeStmt)
// and plan it exactly as POST /v1/query plans a parsed one, so a back end
// only ever sees a *sklang.Plan; a per-route shape then renders the answer
// as that route's wire body. Back ends implement Executor, return values
// and typed errors, and never touch an http.ResponseWriter.
//
// The package is engine-free (api, sklang, obs and the standard library
// only): the coordinator links it without linking internal/core.
package front

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"surfknn/internal/obs"
	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
)

// Request bounds, one definition for every serving layer.
const (
	// MaxK bounds the k a client may request; anything larger is a typo or
	// an attack, not a query.
	MaxK = 1 << 20
	// MaxBodyBytes bounds request bodies; every valid public request is a
	// few hundred bytes.
	MaxBodyBytes = 1 << 20
	// MaxShardBodyBytes bounds POST /v1/shard/knn, whose body carries a
	// candidate set gathered across shards.
	MaxShardBodyBytes = 16 << 20
	// MaxUpdateBatch bounds how many objects one update may carry: one
	// epoch per batch means an unbounded batch would also be an unbounded
	// copy-on-write delta.
	MaxUpdateBatch = 4096
)

// Executor is a query back end. There are exactly two: the server's
// (result cache → admission → pooled session → skexec.Run) and the
// coordinator's (scatter-gather over the fleet).
type Executor interface {
	// Catalog is what the planner may know about the data.
	Catalog() sklang.Catalog
	// Execute answers one compiled plan.
	Execute(ctx context.Context, req Request) (Reply, error)
	// Upsert and Delete apply one validated object batch as one epoch.
	Upsert(ctx context.Context, req api.UpsertRequest) (api.UpdateResponse, error)
	Delete(ctx context.Context, req api.DeleteRequest) (api.DeleteResponse, error)
	// Healthz reports liveness and topology.
	Healthz(ctx context.Context) (api.Healthz, error)
}

// Request is one compiled query on its way to a back end.
type Request struct {
	Plan *sklang.Plan
	// Timeout is the client's "timeout" field; zero selects the back end's
	// default.
	Timeout time.Duration
	// Explain asks for the executed plan tree in Answer.Plan (POST
	// /v1/explain): always a fresh execution, and a SUBSCRIBE is evaluated
	// once without registering a subscription.
	Explain bool
	// Key names the reply body among everything a result cache may hold:
	// the route's shape plus the plan's canonical spelling. Empty marks a
	// reply that must never be cached (explain, subscribe).
	Key string
	// Encode renders the answer as the calling route's wire body. A caching
	// back end stores exactly these bytes.
	Encode func(*Answer) ([]byte, error)
}

// Answer is what executing a plan produced, in wire terms.
type Answer struct {
	// Query carries the payloads: Result always, Distance and Subscription
	// for those forms. The front fills Form and Algorithm.
	Query api.QueryResponse
	// Plan is the executed plan tree (Request.Explain only).
	Plan api.PlanNode
	// Epoch is the object-store epoch the answer was computed against.
	Epoch uint64
}

// Reply is a successful response: the JSON body (Body, or Value for the
// front to encode) and the contract's response headers.
type Reply struct {
	Body  []byte
	Value any
	// Epoch is stamped as X-Epoch.
	Epoch uint64
	// Cache is stamped as X-Cache ("hit"/"miss"); empty on replies that are
	// never cached.
	Cache string
	// SafeRegion is stamped as X-Safe-Region ("hit"/"miss") on subscription
	// answers.
	SafeRegion string
}

// Counters are the back end's request-outcome counters the front feeds;
// nil entries are skipped (each back end publishes its own subset).
type Counters struct {
	BadRequests *obs.Counter // 400/404 refusals
	TimedOut    *obs.Counter // 408
	Rejected    *obs.Counter // 429
	Degraded    *obs.Counter // 503
	Queries     *obs.Counter // query routes answered OK
}

func count(c *obs.Counter) {
	if c != nil {
		c.Add(1)
	}
}

// HandlerFunc answers one request with a reply or a typed error; the front
// bounds the body before calling it and writes the outcome after.
type HandlerFunc func(r *http.Request) (Reply, error)

// Route is one row of the public route table.
type Route struct {
	// Pattern is the Go 1.22 mux pattern ("POST /v1/knn").
	Pattern string
	// ServerOnly routes need per-process state (subscriptions, the shard
	// fabric, this process's expvars); a coordinator does not offer them.
	ServerOnly bool
	// MaxBody bounds the request body; zero selects MaxBodyBytes.
	MaxBody int64

	serve func(*front, *http.Request) (Reply, error) // nil: the back end supplies it
	raw   http.Handler                               // non-JSON routes
}

// Routes is the single public route table both binaries serve from.
var Routes = []Route{
	{Pattern: "POST /v1/query", serve: (*front).query},
	{Pattern: "POST /v1/explain", serve: (*front).explain},
	{Pattern: "POST /v1/knn", serve: (*front).knn},
	{Pattern: "POST /v1/range", serve: (*front).rangeQuery},
	{Pattern: "POST /v1/distance", serve: (*front).distance},
	{Pattern: "POST /v1/objects", serve: (*front).upsert},
	{Pattern: "DELETE /v1/objects", serve: (*front).remove},
	{Pattern: "GET /v1/healthz", serve: (*front).healthz},
	{Pattern: "GET /debug/explain", raw: http.HandlerFunc(console)},
	{Pattern: "POST /v1/subscribe", ServerOnly: true, serve: (*front).subscribe},
	{Pattern: "POST /v1/subscribe/{id}/move", ServerOnly: true},
	{Pattern: "DELETE /v1/subscribe/{id}", ServerOnly: true},
	{Pattern: "POST /v1/shard/knn2d", ServerOnly: true},
	{Pattern: "POST /v1/shard/range2d", ServerOnly: true},
	{Pattern: "POST /v1/shard/knn", ServerOnly: true, MaxBody: MaxShardBodyBytes},
	{Pattern: "POST /v1/shard/ea", ServerOnly: true},
	{Pattern: "POST /v1/shard/range", ServerOnly: true},
	{Pattern: "POST /v1/shard/objects", ServerOnly: true},
	{Pattern: "GET /debug/vars", ServerOnly: true, raw: expvar.Handler()},
}

type front struct {
	ex Executor
	n  Counters
}

// Handler builds the public HTTP surface over ex from the route table. own
// supplies the handlers of the table's back-end routes, keyed by pattern; a
// coordinator passes nil and offers none of the ServerOnly routes. A table
// row without a handler, or a handler without a row, is a programming error
// and panics at construction — a route cannot exist on one mux and be
// forgotten on the other.
func Handler(ex Executor, n Counters, own map[string]HandlerFunc) http.Handler {
	f := &front{ex: ex, n: n}
	mux := http.NewServeMux()
	used := 0
	for _, rt := range Routes {
		if rt.ServerOnly && own == nil {
			continue
		}
		switch {
		case rt.raw != nil:
			mux.Handle(rt.Pattern, rt.raw)
			continue
		case rt.serve == nil:
			h, ok := own[rt.Pattern]
			if !ok {
				panic("front: no handler supplied for route " + rt.Pattern)
			}
			used++
			rt.serve = func(_ *front, r *http.Request) (Reply, error) { return h(r) }
		}
		mux.Handle(rt.Pattern, f.adapt(rt))
	}
	if used != len(own) {
		panic("front: a supplied handler matches no route in the table")
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, NotFound("no such endpoint %s %s", r.Method, r.URL.Path))
	})
	// Every request carries an id: the client's X-Request-Id when it is a
	// sane token, else a fresh one. It is echoed on the response (where
	// the access log reads it) and rides the context to the slow-query
	// log and to a coordinator's shard calls.
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(obs.RequestIDHeader)
		if !obs.ValidRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, id)
		mux.ServeHTTP(w, r.WithContext(obs.WithRequestID(r.Context(), id)))
	})
}

// adapt mounts one value-returning route on http: bound the body, run the
// handler, write the reply or the mapped error.
func (f *front) adapt(rt Route) http.Handler {
	limit := rt.MaxBody
	if limit == 0 {
		limit = MaxBodyBytes
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
		rep, err := rt.serve(f, r)
		if err == nil && rep.Body == nil {
			rep.Body, err = Encode(rep.Value)
		}
		if err != nil {
			f.fail(w, err)
			return
		}
		h := w.Header()
		h.Set("Content-Type", "application/json")
		h.Set("X-Epoch", strconv.FormatUint(rep.Epoch, 10))
		if rep.Cache != "" {
			h.Set("X-Cache", rep.Cache)
		}
		if rep.SafeRegion != "" {
			h.Set("X-Safe-Region", rep.SafeRegion)
		}
		//lint:ignore dropped-error a client gone mid-reply is not a server failure
		_, _ = w.Write(rep.Body)
	})
}

// Decode reads the JSON request body into dst. Unknown fields are errors —
// a misspelled option silently falling back to a default is worse than a
// 400 — and so is anything after the one JSON value.
func Decode(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return BadRequest("invalid request body: %v", err)
	}
	if dec.More() {
		return BadRequest("trailing data after request body")
	}
	return nil
}

// Encode renders a response value to the exact bytes that are both sent and
// cached, newline-terminated like json.Encoder output.
func Encode(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("encoding response: %w", err)
	}
	return append(b, '\n'), nil
}

func console(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	//lint:ignore dropped-error a client gone mid-reply is not a server failure
	_, _ = w.Write([]byte(sklang.ExplainHTML))
}
