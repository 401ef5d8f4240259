package shard

// The coordinator's HTTP surface is the shared front (internal/server/front)
// over the coordinator as its executor: the same public routes, bodies,
// validation, envelopes and X-Epoch header a standalone server exposes,
// answered by scatter-gather over the fleet, so clients do not need to know
// which one they talk to. The one addition is the failure mode only a
// distributed deployment has: when a required shard is down the answer is
// 503 "shard_unavailable" with the per-shard failure detail, never a
// silently partial result. The routes that need per-process state
// (subscriptions, the shard fabric) are not offered.

import (
	"net/http"
	"time"

	"surfknn/internal/server/front"
)

// Handler returns the coordinator's public HTTP surface.
func (c *Coordinator) Handler() http.Handler {
	next := front.Handler(c, front.Counters{
		BadRequests: &c.stats.BadRequests,
		Degraded:    &c.stats.Degraded,
		Queries:     &c.stats.Queries,
	}, nil)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &front.StatusRecorder{ResponseWriter: w}
		c.stats.Requests.Add(1)
		next.ServeHTTP(rec, r)
		if rec.Status == 0 {
			rec.Status = http.StatusOK
		}
		c.stats.RequestLatency().Observe(time.Since(start))
		c.access.Log(r, rec, start, "")
	})
}
