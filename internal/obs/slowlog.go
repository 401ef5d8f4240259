package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// SlowQuery is one slow-query log entry: the query's identity, its cost
// summary, and (when the session recorded one) its phase trace.
type SlowQuery struct {
	// RequestID is the id of the HTTP request that ran the query, if any.
	RequestID string        `json:"request_id,omitempty"`
	Algo      string        `json:"algo"`
	K         int           `json:"k,omitempty"`
	Elapsed   time.Duration `json:"elapsed_ns"`
	CPU       time.Duration `json:"cpu_ns"`
	Pages     int64         `json:"pages"`
	Err       string        `json:"err,omitempty"`
	Trace     *Trace        `json:"trace,omitempty"`
}

// SlowQueryLog writes one JSON line per query whose elapsed time reaches
// the threshold. Safe for concurrent use: the writer is serialised by a
// mutex, so entries never interleave.
type SlowQueryLog struct {
	threshold time.Duration

	mu  sync.Mutex
	w   io.Writer
	err error // first write error; later entries are dropped on the floor
}

// NewSlowQueryLog logs queries at least threshold slow to w. A zero
// threshold logs every query.
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	return &SlowQueryLog{threshold: threshold, w: w}
}

// Threshold returns the configured slowness threshold.
func (l *SlowQueryLog) Threshold() time.Duration { return l.threshold }

// Log writes the entry if it is slow enough; reports whether it was
// written. A writer error latches: the log stops writing (the query path
// must not fail because a log sink did) and Err exposes the cause.
func (l *SlowQueryLog) Log(q SlowQuery) bool {
	if q.Elapsed < l.threshold {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return false
	}
	enc := json.NewEncoder(l.w)
	if err := enc.Encode(q); err != nil {
		l.err = err
		return false
	}
	return true
}

// Err returns the first write error, or nil.
func (l *SlowQueryLog) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}
