package front

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"surfknn/internal/obs"
)

// StatusRecorder captures the status code and body size the handler wrote,
// for the access log and a panic guard (a recovered panic can only send
// 500 if nothing was written yet).
type StatusRecorder struct {
	http.ResponseWriter
	Status int
	Bytes  int
}

func (r *StatusRecorder) WriteHeader(status int) {
	if r.Status == 0 {
		r.Status = status
	}
	r.ResponseWriter.WriteHeader(status)
}

func (r *StatusRecorder) Write(b []byte) (int, error) {
	if r.Status == 0 {
		r.Status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.Bytes += n
	return n, err
}

// AccessEntry is one access-log line: the HTTP-level view of a request
// (status, cache disposition, whole-request latency). Per-phase traces are
// the engine's slow-query log's business.
type AccessEntry struct {
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

// AccessLog writes one JSON line per request, for skserve and skcoord
// alike. Lines are serialised by a mutex so concurrent requests never
// interleave. A nil *AccessLog logs nothing.
type AccessLog struct {
	mu sync.Mutex
	w  io.Writer
}

// NewAccessLog returns a log writing to w, or nil when w is nil.
func NewAccessLog(w io.Writer) *AccessLog {
	if w == nil {
		return nil
	}
	return &AccessLog{w: w}
}

// Log writes the line of one finished request; recovered is the rendered
// panic, empty when the handler returned.
func (l *AccessLog) Log(r *http.Request, rec *StatusRecorder, start time.Time, recovered string) {
	if l == nil {
		return
	}
	entry := AccessEntry{
		Time:      start.UTC().Format(time.RFC3339Nano),
		RequestID: rec.Header().Get(obs.RequestIDHeader),
		Method:    r.Method,
		Path:      r.URL.Path,
		Status:    rec.Status,
		Bytes:     rec.Bytes,
		DurUs:     time.Since(start).Microseconds(),
		Cache:     rec.Header().Get("X-Cache"),
		Remote:    r.RemoteAddr,
		Recover:   recovered,
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	// A dead log sink must not fail the request path.
	//lint:ignore dropped-error logging is best-effort by design
	_ = json.NewEncoder(l.w).Encode(entry)
}

// OpenAccessLog resolves an -access-log flag: "" is off (nil), "stderr" is
// standard error, anything else a file opened for appending.
func OpenAccessLog(dest string) (io.Writer, error) {
	switch strings.ToLower(dest) {
	case "":
		return nil, nil
	case "stderr":
		return os.Stderr, nil
	default:
		f, err := os.OpenFile(dest, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("access log: %w", err)
		}
		return f, nil
	}
}
