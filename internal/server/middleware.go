package server

import (
	"net/http"
	"runtime/debug"
	"strconv"
	"time"

	"surfknn/internal/server/front"
)

// instrument is the outermost middleware: request counting, whole-request
// latency, panic recovery, and access logging. Every handler in the mux
// runs inside it.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &front.StatusRecorder{ResponseWriter: w}
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
					if rec.Status == 0 {
						front.WriteError(rec, front.Internal("internal error (recovered panic)"))
					}
				}
			}()
			next.ServeHTTP(rec, r)
		}()
		if rec.Status == 0 {
			// Handler wrote nothing at all (e.g. 200 with empty body).
			rec.Status = http.StatusOK
		}
		s.stats.RequestLatency().Observe(time.Since(start))
		s.access.Log(r, rec, start, recovered)
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
