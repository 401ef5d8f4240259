package server

import (
	"encoding/json"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"surfknn/internal/obs"
	"surfknn/internal/server/front"
)

// statusRecorder captures the status code and body size the handler wrote,
// for the access log and the panic guard (a recovered panic can only send
// 500 if nothing was written yet).
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(status int) {
	if r.status == 0 {
		r.status = status
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// accessEntry is one access-log line. Slow-query detail (per-phase traces)
// is not duplicated here: the engine's slow-query log — the PR 3 plumbing
// the server reuses via Registry.SetSlowLog — already emits the trace-
// carrying JSON line for any query over the threshold; this log records
// the HTTP-level view (status, cache disposition, whole-request latency).
type accessEntry struct {
	Time      string `json:"t"`
	RequestID string `json:"request_id,omitempty"`
	Method    string `json:"method"`
	Path      string `json:"path"`
	Status    int    `json:"status"`
	Bytes     int    `json:"bytes"`
	DurUs     int64  `json:"dur_us"`
	Cache     string `json:"cache,omitempty"`
	Remote    string `json:"remote,omitempty"`
	Recover   string `json:"panic,omitempty"`
}

// instrument is the outermost middleware: request counting, whole-request
// latency, panic recovery, and access logging. Every handler in the mux
// runs inside it.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w}
		s.stats.Requests.Add(1)
		// Every response carries the object-store epoch it was served
		// against. This blanket stamp uses the epoch current at request
		// entry; handlers that know the exact epoch of their answer (a
		// cached result, a query's pinned view) overwrite it before
		// writing.
		rec.Header().Set("X-Epoch", strconv.FormatUint(s.db.CurrentEpoch(), 10))
		var recovered string
		func() {
			defer func() {
				if p := recover(); p != nil {
					recovered = appendPanic(p)
					s.stats.Panics.Add(1)
					// A handler panic is a failed query as far as the
					// engine-level dashboard is concerned, even though the
					// session never got to record it.
					if reg := s.db.Registry(); reg != nil {
						reg.QueriesFailed.Add(1)
					}
					if rec.status == 0 {
						front.WriteError(rec, front.Internal("internal error (recovered panic)"))
					}
				}
			}()
			next.ServeHTTP(rec, r)
		}()
		if rec.status == 0 {
			// Handler wrote nothing at all (e.g. 200 with empty body).
			rec.status = http.StatusOK
		}
		s.stats.RequestLatency().Observe(time.Since(start))
		s.logAccess(r, rec, start, recovered)
	})
}

// appendPanic renders the recovered value with its stack for the access
// log; the HTTP response deliberately carries no detail.
func appendPanic(p any) string {
	return formatPanic(p) + "\n" + string(debug.Stack())
}

func formatPanic(p any) string {
	if err, ok := p.(error); ok {
		return err.Error()
	}
	if str, ok := p.(string); ok {
		return str
	}
	return "non-string panic"
}

// logAccess writes one JSON line per request when an access log is
// configured. Lines are serialised by a mutex so concurrent requests never
// interleave.
func (s *Server) logAccess(r *http.Request, rec *statusRecorder, start time.Time, recovered string) {
	if s.cfg.AccessLog == nil {
		return
	}
	entry := accessEntry{
		Time:      start.UTC().Format(time.RFC3339Nano),
		RequestID: rec.Header().Get(obs.RequestIDHeader),
		Method:    r.Method,
		Path:      r.URL.Path,
		Status:    rec.status,
		Bytes:     rec.bytes,
		DurUs:     time.Since(start).Microseconds(),
		Cache:     rec.Header().Get("X-Cache"),
		Remote:    r.RemoteAddr,
		Recover:   recovered,
	}
	s.logMu.Lock()
	defer s.logMu.Unlock()
	// A dead log sink must not fail the request path.
	//lint:ignore dropped-error logging is best-effort by design
	_ = json.NewEncoder(s.cfg.AccessLog).Encode(entry)
}
