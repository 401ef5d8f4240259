package obs

import "sync"

// ServerStats is the metric group of the HTTP serving layer
// (internal/server): request lifecycle, admission-control outcomes, and the
// result cache. It complements Registry — which counts engine-level query
// work — with the serving-path view: a request rejected at admission or
// answered from the cache never reaches the engine, so it appears here and
// nowhere in the Registry.
//
// All fields are updated atomically through their methods; the sklint
// obs-atomic rule forbids direct writes. The zero value is NOT ready for
// use — create with NewServerStats.
type ServerStats struct {
	// Request lifecycle, by outcome. Requests counts every request the
	// handlers saw (including rejected and failed ones).
	Requests    Counter
	BadRequests Counter // rejected by validation (HTTP 400/404)
	TimedOut    Counter // deadline exceeded or client gone (HTTP 408)
	Rejected    Counter // refused by admission control (HTTP 429)
	Panics      Counter // recovered handler panics (HTTP 500)

	// Admission-control occupancy.
	InFlight Gauge // requests holding an execution slot
	Queued   Gauge // requests waiting for a slot

	// Result cache.
	CacheHits      Counter
	CacheMisses    Counter
	CacheEvictions Counter

	latency *Histogram // whole-request wall latency (admission wait included)

	publishOnce sync.Once
}

// NewServerStats returns an empty metric group ready for concurrent use.
func NewServerStats() *ServerStats {
	return &ServerStats{latency: NewHistogram()}
}

// RequestLatency is the whole-request wall-latency histogram (time from
// handler entry to response written, admission wait included).
func (s *ServerStats) RequestLatency() *Histogram { return s.latency }

// Snapshot renders the group as a nested map, the value Publish exposes
// through expvar.
func (s *ServerStats) Snapshot() map[string]any {
	return map[string]any{
		"requests": map[string]any{
			"total":      s.Requests.Value(),
			"bad":        s.BadRequests.Value(),
			"timeout":    s.TimedOut.Value(),
			"rejected":   s.Rejected.Value(),
			"panics":     s.Panics.Value(),
			"in_flight":  s.InFlight.Value(),
			"queued":     s.Queued.Value(),
			"latency_us": s.latency.Snapshot(),
		},
		"cache": map[string]any{
			"hits":      s.CacheHits.Value(),
			"misses":    s.CacheMisses.Value(),
			"evictions": s.CacheEvictions.Value(),
		},
	}
}

// Publish exposes the group's Snapshot at /debug/vars under the given name
// (skserve uses "surfknn_server"). Same contract as Registry.Publish:
// republishing the same group is a no-op, a name collision is an error.
func (s *ServerStats) Publish(name string) error {
	return publish(&s.publishOnce, name, s.Snapshot)
}
