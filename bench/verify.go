package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/obs"
	"surfknn/internal/server/api"
	"surfknn/internal/workload"
)

// checkAnswer is the cheap structural check run on every read answer: k
// rows, lb ≤ ub on each, rows in the engine's canonical order (ascending
// ub), no id twice, and only ids the store has ever held.
func checkAnswer(res api.Result, k int, known map[int64]bool) error {
	if len(res.Neighbors) != k {
		return fmt.Errorf("%d neighbours, want %d", len(res.Neighbors), k)
	}
	seen := make(map[int64]bool, k)
	for i, n := range res.Neighbors {
		lb, ub := float64(n.LB), float64(n.UB)
		if math.IsNaN(lb) || math.IsNaN(ub) || lb < 0 || lb > ub {
			return fmt.Errorf("neighbour %d (id %d): bounds [%g, %g]", i, n.ID, lb, ub)
		}
		if i > 0 && ub < float64(res.Neighbors[i-1].UB) {
			return fmt.Errorf("neighbour %d (id %d): ub %g below its predecessor's", i, n.ID, ub)
		}
		if seen[n.ID] {
			return fmt.Errorf("id %d appears twice", n.ID)
		}
		seen[n.ID] = true
		if known != nil && !known[n.ID] {
			return fmt.Errorf("id %d was never in the store", n.ID)
		}
	}
	return nil
}

// replayed is the in-process answer to one query: what a direct Session
// call returns on the snapshot the servers loaded.
type replayed struct {
	neighbors []api.Neighbor
	pages     int64
	trace     *obs.Trace // phase trace, when the session was tracing
	start     int64      // span clock, ns
	end       int64
	err       error
}

// replay answers a k-NN query in-process, the way the server's handler does.
func replay(ctx context.Context, db *core.TerrainDB, sess *core.Session, o *op, clock func() int64) replayed {
	x, y := o.x, o.y
	var r replayed
	q, err := db.SurfacePointAt(geom.Vec2{X: x, Y: y})
	if err != nil {
		r.err = fmt.Errorf("lifting (%g, %g): %w", x, y, err)
		return r
	}
	s := core.S1
	if o.sched == 2 {
		s = core.S2
	}
	r.start = clock()
	res, err := sess.MR3Ctx(ctx, q, o.k, s, core.Options{})
	r.end = clock()
	if err != nil {
		r.err = fmt.Errorf("replaying (%g, %g): %w", x, y, err)
		return r
	}
	// The result aliases session scratch until the next query: copy out.
	r.neighbors = make([]api.Neighbor, len(res.Neighbors))
	for i, n := range res.Neighbors {
		p := n.Object.Point.Pos
		r.neighbors[i] = api.Neighbor{ID: n.Object.ID, X: p.X, Y: p.Y, Z: p.Z, LB: api.Float(n.LB), UB: api.Float(n.UB)}
	}
	r.pages = res.Cost.Pages()
	r.trace = res.Trace
	return r
}

// sameAnswer compares a served answer with the replayed one bit for bit.
func sameAnswer(got []api.Neighbor, want []api.Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbours, replay has %d", len(got), len(want))
	}
	bits := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || bits(g.X) != bits(w.X) || bits(g.Y) != bits(w.Y) || bits(g.Z) != bits(w.Z) ||
			bits(float64(g.LB)) != bits(float64(w.LB)) || bits(float64(g.UB)) != bits(float64(w.UB)) {
			return fmt.Errorf("neighbour %d: served %+v, replay %+v", i, g, w)
		}
	}
	return nil
}

// queryKey identifies a query for replay purposes: equal keys have equal
// answers at one epoch.
type queryKey struct {
	x, y     uint64
	k, sched int
}

func keyOf(o *op) queryKey {
	return queryKey{math.Float64bits(o.x), math.Float64bits(o.y), o.k, o.sched}
}

// replaySampled replays the kept answers of a read-only phase in-process
// (each distinct query once, on two sessions in parallel) and marks every
// sample whose served answer differs as failed. comparePages is off for
// the fleet, whose cost.pages sums per-shard work. It returns the replays
// for the trace.
func replaySampled(ctx context.Context, db *core.TerrainDB, samples []sample, comparePages, tracing bool, clock func() int64) []replayed {
	byKey := make(map[queryKey][]int)
	var keys []queryKey
	for i := range samples {
		s := &samples[i]
		if !s.ok || s.answer == nil {
			continue
		}
		k := keyOf(s.op)
		if _, dup := byKey[k]; !dup {
			keys = append(keys, k)
		}
		byKey[k] = append(byKey[k], i)
	}
	out := make([]replayed, len(keys))
	var wg sync.WaitGroup
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := db.AcquireSession()
			defer db.Release(sess)
			sess.SetTracing(tracing)
			defer sess.SetTracing(false)
			for j := w; j < len(keys); j += clients {
				out[j] = replay(ctx, db, sess, samples[byKey[keys[j]][0]].op, clock)
			}
		}(w)
	}
	wg.Wait()
	for j, k := range keys {
		r := out[j]
		for _, i := range byKey[k] {
			s := &samples[i]
			err := r.err
			if err == nil {
				err = sameAnswer(s.answer, r.neighbors)
			}
			// A cache or safe-region hit replays the cached body, whose cost
			// is that of the computation at this same epoch: pages agree too.
			if err == nil && comparePages && s.pages != r.pages {
				err = fmt.Errorf("cost.pages %d, replay %d", s.pages, r.pages)
			}
			if err != nil {
				s.ok, s.wrong, s.err = false, true, "replay mismatch: "+err.Error()
			}
		}
	}
	return out
}

// applyAcked replays every acknowledged update on the in-process store, in
// the order of the epochs the server assigned, and returns the epoch the
// store ends at. A delete that found nothing to remove (its insert was still
// in flight on the other client) publishes no epoch and reports the one it
// saw, so it replays after the update that made that epoch.
func applyAcked(db *core.TerrainDB, phases ...[]sample) (uint64, error) {
	var acked []*sample
	for _, ph := range phases {
		for i := range ph {
			if s := &ph[i]; s.ok && (s.op.kind == opUpsert || s.op.kind == opDelete) {
				acked = append(acked, s)
			}
		}
	}
	sort.SliceStable(acked, func(a, b int) bool {
		if acked[a].epoch != acked[b].epoch {
			return acked[a].epoch < acked[b].epoch
		}
		return !acked[a].noop && acked[b].noop
	})
	store := db.ObjectStore()
	for _, s := range acked {
		var got uint64
		if s.op.kind == opDelete {
			got, _ = store.Delete(s.op.ids)
		} else {
			batch := make([]workload.Object, len(s.op.objs))
			for i, o := range s.op.objs {
				p, err := db.SurfacePointAt(geom.Vec2{X: o.X, Y: o.Y})
				if err != nil {
					return 0, fmt.Errorf("lifting object %d: %w", *o.ID, err)
				}
				batch[i] = workload.Object{ID: *o.ID, Point: p}
			}
			got = store.Upsert(batch)
		}
		if got != s.epoch {
			return 0, fmt.Errorf("%s acknowledged at epoch %d replays to epoch %d: an update was lost or reordered",
				s.op.kind, s.epoch, got)
		}
	}
	return db.CurrentEpoch(), nil
}
