package obs

import "sync"

// CoordStats is the metric group of the scatter-gather coordinator
// (internal/shard): how many public requests it answered, how its fan-out
// behaved (shard calls issued, shards pruned by the search-region bound,
// shard failures after retries), and how often it had to refuse a degraded
// answer. It complements ServerStats — which each shard keeps for its own
// HTTP surface — with the fleet-level view only the coordinator has.
//
// All fields are updated atomically through their methods; the sklint
// obs-atomic rule forbids direct writes. The zero value is NOT ready for
// use — create with NewCoordStats.
type CoordStats struct {
	// Public request lifecycle.
	Requests    Counter
	BadRequests Counter // rejected by validation (HTTP 400/404)
	Queries     Counter // knn/range/distance answered OK
	Updates     Counter // object batches applied fleet-wide

	// Fan-out behaviour.
	ShardCalls   Counter // shard RPCs issued (retries counted by the client)
	ShardErrors  Counter // shard RPCs that failed after retries
	PrunedShards Counter // shards skipped because the search region missed their tile
	Degraded     Counter // answers refused because a required shard was down (HTTP 503)

	// k-NN paths: answered by the query tile in one call, or resumed with
	// a 2-D range round.
	KNNSettled Counter
	KNNResumed Counter

	latency *Histogram // whole-request wall latency, fan-out included

	publishOnce sync.Once
}

// NewCoordStats returns an empty metric group ready for concurrent use.
func NewCoordStats() *CoordStats {
	return &CoordStats{latency: NewHistogram()}
}

// RequestLatency is the whole-request wall-latency histogram.
func (s *CoordStats) RequestLatency() *Histogram { return s.latency }

// Snapshot renders the group as a nested map, the value Publish exposes
// through expvar.
func (s *CoordStats) Snapshot() map[string]any {
	return map[string]any{
		"requests": map[string]any{
			"total":      s.Requests.Value(),
			"bad":        s.BadRequests.Value(),
			"queries":    s.Queries.Value(),
			"updates":    s.Updates.Value(),
			"degraded":   s.Degraded.Value(),
			"latency_us": s.latency.Snapshot(),
		},
		"fanout": map[string]any{
			"shard_calls":   s.ShardCalls.Value(),
			"shard_errors":  s.ShardErrors.Value(),
			"pruned_shards": s.PrunedShards.Value(),
		},
		"knn": map[string]any{
			"settled": s.KNNSettled.Value(),
			"resumed": s.KNNResumed.Value(),
		},
	}
}

// Publish exposes the group's Snapshot at /debug/vars under the given name
// (skcoord uses "surfknn_coord"). Same contract as Registry.Publish:
// republishing the same group is a no-op, a name collision is an error.
func (s *CoordStats) Publish(name string) error {
	return publish(&s.publishOnce, name, s.Snapshot)
}
