package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/obs"
	"surfknn/internal/server/api"
	"surfknn/internal/workload"
)

// testDB builds the shared test terrain once: EP preset, 17×17 grid, 30
// objects — the same shape the e2e test generates through skgen -db.
var (
	dbOnce sync.Once
	testdb *core.TerrainDB
)

func getDB(t testing.TB) *core.TerrainDB {
	t.Helper()
	dbOnce.Do(func() {
		g := dem.Synthesize(dem.EP, 16, 100, 2006)
		m := mesh.FromGrid(g)
		db, err := core.BuildTerrainDB(m, core.Config{})
		if err != nil {
			panic(err)
		}
		objs, err := workload.RandomObjects(m, db.Loc, 30, 2007)
		if err != nil {
			panic(err)
		}
		db.SetObjects(objs)
		testdb = db
	})
	return testdb
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	return New(getDB(t), cfg)
}

// post drives one JSON request through the full handler chain.
func post(t testing.TB, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// decodeError pulls the typed error envelope out of a non-200 response.
func decodeError(t *testing.T, w *httptest.ResponseRecorder) string {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
		t.Fatalf("error body is not an envelope: %v\n%s", err, w.Body.String())
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", w.Body.String())
	}
	return env.Error.Code
}

func TestValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		status           int
		code             string
	}{
		{"malformed json", "/v1/knn", `{"x":`, http.StatusBadRequest, "bad_request"},
		{"missing k", "/v1/knn", `{"x":800,"y":800}`, http.StatusBadRequest, "bad_request"},
		{"k too large", "/v1/knn", `{"x":800,"y":800,"k":2000000}`, http.StatusBadRequest, "bad_request"},
		{"bad sched", "/v1/knn", `{"x":800,"y":800,"k":3,"sched":7}`, http.StatusBadRequest, "bad_request"},
		{"unknown field", "/v1/knn", `{"x":800,"y":800,"k":3,"radius":5}`, http.StatusBadRequest, "bad_request"},
		{"trailing data", "/v1/knn", `{"x":800,"y":800,"k":3}{"again":1}`, http.StatusBadRequest, "bad_request"},
		{"bad option fraction", "/v1/knn", `{"x":800,"y":800,"k":3,"options":{"step2_accuracy":1.5}}`, http.StatusBadRequest, "bad_request"},
		{"numeric timeout", "/v1/knn", `{"x":800,"y":800,"k":3,"timeout":5}`, http.StatusBadRequest, "bad_request"},
		{"off-terrain point", "/v1/knn", `{"x":-1e6,"y":0,"k":3}`, http.StatusNotFound, "not_found"},
		{"bad radius", "/v1/range", `{"x":800,"y":800,"radius":-5}`, http.StatusBadRequest, "bad_request"},
		{"bad accuracy", "/v1/distance", `{"x":800,"y":800,"x2":200,"y2":300,"accuracy":2}`, http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := post(t, s, tc.path, tc.body)
			if w.Code != tc.status {
				t.Fatalf("status = %d, want %d\n%s", w.Code, tc.status, w.Body.String())
			}
			if code := decodeError(t, w); code != tc.code {
				t.Errorf("error code = %q, want %q", code, tc.code)
			}
		})
	}
	if got := s.Stats().BadRequests.Value(); got < int64(len(cases)) {
		t.Errorf("BadRequests = %d, want >= %d", got, len(cases))
	}
}

func TestUnknownRoute(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/nope", `{}`)
	if w.Code != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", w.Code)
	}
	if code := decodeError(t, w); code != "not_found" {
		t.Errorf("error code = %q, want not_found", code)
	}
}

// TestKNNMatchesDirect is the serving-layer fidelity check: the HTTP answer
// must be bit-identical to calling the engine directly.
func TestKNNMatchesDirect(t *testing.T) {
	db := getDB(t)
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/knn", `{"x":800,"y":800,"k":5}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", w.Code, w.Body.String())
	}
	var resp api.Result
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}

	q, err := db.SurfacePointAt(geom.Vec2{X: 800, Y: 800})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.NewSession().MR3Ctx(context.Background(), q, 5, core.S1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) != len(direct.Neighbors) {
		t.Fatalf("got %d neighbors, want %d", len(resp.Neighbors), len(direct.Neighbors))
	}
	for i, n := range direct.Neighbors {
		h := resp.Neighbors[i]
		if h.ID != n.Object.ID {
			t.Errorf("neighbor %d: id = %d, want %d", i, h.ID, n.Object.ID)
		}
		if math.Float64bits(float64(h.LB)) != math.Float64bits(n.LB) ||
			math.Float64bits(float64(h.UB)) != math.Float64bits(n.UB) {
			t.Errorf("neighbor %d: bounds [%v, %v] not bit-identical to [%v, %v]",
				i, float64(h.LB), float64(h.UB), n.LB, n.UB)
		}
	}
}

func TestCacheHit(t *testing.T) {
	s := newTestServer(t, Config{})
	const body = `{"x":700,"y":900,"k":4}`
	first := post(t, s, "/v1/knn", body)
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first: status %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	second := post(t, s, "/v1/knn", body)
	if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("second: status %d, X-Cache %q", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cache hit returned a different body")
	}
	if s.Stats().CacheHits.Value() < 1 || s.Stats().CacheMisses.Value() < 1 {
		t.Errorf("cache counters: hits=%d misses=%d",
			s.Stats().CacheHits.Value(), s.Stats().CacheMisses.Value())
	}
}

func TestCacheDisabled(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: -1})
	const body = `{"x":700,"y":900,"k":4}`
	for i := 0; i < 2; i++ {
		w := post(t, s, "/v1/knn", body)
		if w.Code != http.StatusOK || w.Header().Get("X-Cache") != "miss" {
			t.Fatalf("request %d: status %d, X-Cache %q", i, w.Code, w.Header().Get("X-Cache"))
		}
	}
}

func TestTimeout(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: -1})
	w := post(t, s, "/v1/knn", `{"x":760,"y":840,"k":5,"timeout":"1ns"}`)
	if w.Code != http.StatusRequestTimeout {
		t.Fatalf("status = %d, want 408\n%s", w.Code, w.Body.String())
	}
	if code := decodeError(t, w); code != "timeout" {
		t.Errorf("error code = %q, want timeout", code)
	}
	if s.Stats().TimedOut.Value() < 1 {
		t.Errorf("TimedOut = %d, want >= 1", s.Stats().TimedOut.Value())
	}
}

// TestSaturation pins the admission contract: with the one execution slot
// held and no queue, the server sheds load with 429 + Retry-After instead
// of hanging.
func TestSaturation(t *testing.T) {
	s := newTestServer(t, Config{
		MaxInFlight: 1,
		QueueDepth:  -1, // no wait queue
		QueueWait:   10 * time.Millisecond,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil { // hold the only slot
		t.Fatal(err)
	}
	defer s.adm.release()

	w := post(t, s, "/v1/knn", `{"x":800,"y":800,"k":3}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429\n%s", w.Code, w.Body.String())
	}
	if code := decodeError(t, w); code != "saturated" {
		t.Errorf("error code = %q, want saturated", code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 response missing Retry-After")
	}
	if s.Stats().Rejected.Value() < 1 {
		t.Errorf("Rejected = %d, want >= 1", s.Stats().Rejected.Value())
	}
}

// TestQueueAdmits proves the wait queue actually absorbs a burst: a request
// arriving while the slot is briefly held waits and then succeeds.
func TestQueueAdmits(t *testing.T) {
	s := newTestServer(t, Config{
		MaxInFlight: 1,
		QueueDepth:  4,
		QueueWait:   2 * time.Second,
	})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.adm.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		s.adm.release()
	}()
	w := post(t, s, "/v1/knn", `{"x":800,"y":800,"k":3}`)
	if w.Code != http.StatusOK {
		t.Fatalf("queued request: status = %d\n%s", w.Code, w.Body.String())
	}
}

func TestPanicRecovery(t *testing.T) {
	s := newTestServer(t, Config{AccessLog: io.Discard})
	h := s.instrument(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom")
	}))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", w.Code)
	}
	if code := decodeError(t, w); code != "internal" {
		t.Errorf("error code = %q, want internal", code)
	}
	if s.Stats().Panics.Value() != 1 {
		t.Errorf("Panics = %d, want 1", s.Stats().Panics.Value())
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", w.Code, w.Body.String())
	}
	var hz api.Healthz
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Vertices == 0 || hz.Faces == 0 || hz.Objects == 0 {
		t.Errorf("healthz = %+v", hz)
	}
	if hz.FormatVersion == 0 {
		t.Errorf("healthz missing format_version: %+v", hz)
	}
	if hz.ShardID != "" {
		t.Errorf("standalone server reported shard_id %q", hz.ShardID)
	}
}

func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	s := newTestServer(t, Config{AccessLog: &syncWriter{w: &buf}})
	w := post(t, s, "/v1/knn", `{"x":800,"y":800,"k":3}`)
	var entry accessEntry
	if err := json.Unmarshal(buf.Bytes(), &entry); err != nil {
		t.Fatalf("access log line is not JSON: %v\n%s", err, buf.String())
	}
	if entry.Method != "POST" || entry.Path != "/v1/knn" || entry.Status != http.StatusOK {
		t.Errorf("access entry = %+v", entry)
	}
	if id := w.Header().Get(obs.RequestIDHeader); id == "" || entry.RequestID != id {
		t.Errorf("access entry request id %q, response carries %q", entry.RequestID, id)
	}
}

// syncWriter guards a bytes.Buffer so the logger's writes and the test's
// read do not race.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (s *syncWriter) Write(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(b)
}

// TestConcurrentRequests hammers the full chain from many goroutines (run
// under -race by scripts/check.sh): every request must succeed or shed
// cleanly, and every 200 body for the same query must be byte-identical.
func TestConcurrentRequests(t *testing.T) {
	s := newTestServer(t, Config{MaxInFlight: 4, QueueDepth: 64, QueueWait: 5 * time.Second})
	queries := []string{
		`{"x":800,"y":800,"k":3}`,
		`{"x":700,"y":900,"k":5}`,
		`{"x":760,"y":840,"k":2,"sched":2}`,
	}
	want := make([][]byte, len(queries))
	for i, q := range queries {
		w := post(t, s, "/v1/knn", q)
		if w.Code != http.StatusOK {
			t.Fatalf("warmup %d: status %d\n%s", i, w.Code, w.Body.String())
		}
		want[i] = w.Body.Bytes()
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*len(queries)*3)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, q := range queries {
					req := httptest.NewRequest(http.MethodPost, "/v1/knn", strings.NewReader(q))
					w := httptest.NewRecorder()
					s.Handler().ServeHTTP(w, req)
					if w.Code != http.StatusOK {
						errs <- fmt.Errorf("query %d: status %d: %s", i, w.Code, w.Body.String())
						continue
					}
					if !bytes.Equal(w.Body.Bytes(), want[i]) {
						errs <- fmt.Errorf("query %d: body diverged under concurrency", i)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestShutdownDrain pins the graceful lifecycle: Shutdown refuses new
// connections but lets the in-flight request finish.
func TestShutdownDrain(t *testing.T) {
	s := newTestServer(t, Config{CacheEntries: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ln) }()

	url := "http://" + ln.Addr().String() + "/v1/knn"
	resp := make(chan error, 1)
	go func() {
		r, err := http.Post(url, "application/json",
			strings.NewReader(`{"x":800,"y":800,"k":5}`))
		if err == nil {
			defer r.Body.Close()
			if _, err = io.ReadAll(r.Body); err == nil && r.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", r.StatusCode)
			}
		}
		resp <- err
	}()

	time.Sleep(20 * time.Millisecond) // let the request reach the handler
	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-resp; err != nil {
		t.Errorf("in-flight request during shutdown: %v", err)
	}
	if err := <-serveErr; err != http.ErrServerClosed {
		t.Errorf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

func TestShutdownBeforeServe(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("Shutdown before Serve = %v, want nil", err)
	}
}

func TestJSONFloatRoundTrip(t *testing.T) {
	values := []float64{0, 1, math.Pi, 256.56119512693465, -1e-300, math.Inf(1), math.Inf(-1)}
	for _, v := range values {
		b, err := json.Marshal(api.Float(v))
		if err != nil {
			t.Fatalf("marshal %v: %v", v, err)
		}
		var back api.Float
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", b, err)
		}
		if math.Float64bits(float64(back)) != math.Float64bits(v) {
			t.Errorf("round trip %v -> %s -> %v", v, b, float64(back))
		}
	}
	if _, err := json.Marshal(api.Float(math.NaN())); err == nil {
		t.Error("NaN must not marshal")
	}
	var f api.Float
	if err := json.Unmarshal([]byte(`"bogus"`), &f); err == nil {
		t.Error("bogus string must not unmarshal")
	}
}

func TestDistanceEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/distance", `{"x":800,"y":800,"x2":200,"y2":300}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", w.Code, w.Body.String())
	}
	var resp api.DistanceResponse
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if !(float64(resp.LB) <= float64(resp.UB)) || resp.Accuracy <= 0 {
		t.Errorf("distance response = %+v", resp)
	}
}

func TestRangeEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	w := post(t, s, "/v1/range", `{"x":800,"y":800,"radius":400}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d\n%s", w.Code, w.Body.String())
	}
	var resp api.Result
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Neighbors) == 0 {
		t.Error("range query found no objects within 400 m")
	}
	for i, n := range resp.Neighbors {
		if float64(n.UB) > 400 {
			t.Errorf("neighbor %d: ub %v exceeds the radius", i, float64(n.UB))
		}
	}
}
