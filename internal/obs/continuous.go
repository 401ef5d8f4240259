package obs

import "sync"

// ContinuousStats is the metric group of the continuous-query subsystem
// (internal/continuous): the live subscription table, safe-region hit/miss
// outcomes on moves, epoch-invalidation decisions, and the stripe batcher's
// coalescing behaviour. Same contract as ServerStats: all fields are
// updated atomically through their methods (the sklint obs-atomic rule
// forbids direct writes); create with NewContinuousStats.
type ContinuousStats struct {
	// Subscription table.
	Subscriptions Gauge   // live subscriptions
	Evictions     Counter // subscriptions dropped by the LRU bound

	// Move outcomes.
	RegionHits   Counter // moves served from the safe region, zero engine work
	RegionMisses Counter // moves that re-evaluated through the engine

	// Epoch invalidation.
	Invalidations Counter // subscriptions invalidated by an object update
	Revalidations Counter // subscriptions proven unaffected and re-stamped

	// Stripe batcher.
	Stripes       Counter // stripe executions (one session checkout each)
	StripeQueries Counter // re-evaluations run through stripes

	stripeSize *SizeHistogram // subscriptions coalesced per stripe

	publishOnce sync.Once
}

// NewContinuousStats returns an empty metric group ready for concurrent use.
func NewContinuousStats() *ContinuousStats {
	return &ContinuousStats{stripeSize: NewSizeHistogram()}
}

// StripeSize is the subscriptions-per-stripe histogram.
func (s *ContinuousStats) StripeSize() *SizeHistogram { return s.stripeSize }

// Snapshot renders the group as a nested map, the value Publish exposes
// through expvar.
func (s *ContinuousStats) Snapshot() map[string]any {
	return map[string]any{
		"subscriptions": map[string]any{
			"live":      s.Subscriptions.Value(),
			"evictions": s.Evictions.Value(),
		},
		"moves": map[string]any{
			"region_hits":   s.RegionHits.Value(),
			"region_misses": s.RegionMisses.Value(),
		},
		"invalidation": map[string]any{
			"invalidated": s.Invalidations.Value(),
			"revalidated": s.Revalidations.Value(),
		},
		"stripes": map[string]any{
			"executed": s.Stripes.Value(),
			"queries":  s.StripeQueries.Value(),
			"size":     s.stripeSize.Snapshot(),
		},
	}
}

// Publish exposes the group's Snapshot at /debug/vars under the given name
// (skserve uses "surfknn_continuous"). Same contract as Registry.Publish.
func (s *ContinuousStats) Publish(name string) error {
	return publish(&s.publishOnce, name, s.Snapshot)
}
