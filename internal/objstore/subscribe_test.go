package objstore

import (
	"testing"

	"surfknn/internal/geom"
	"surfknn/internal/workload"
)

func TestSubscribeEvents(t *testing.T) {
	s := NewAt([]workload.Object{obj(1, 10, 10), obj(2, 20, 20)}, 0)
	var events []UpdateEvent
	cancel := s.Subscribe(func(ev UpdateEvent) {
		// Pinning inside the callback proves notification happens after the
		// store mutex is released (Pin takes it).
		e := s.Pin()
		if e.Seq() != ev.Epoch {
			t.Errorf("pinned epoch %d inside callback for event epoch %d", e.Seq(), ev.Epoch)
		}
		e.Release()
		events = append(events, ev)
	})

	// Upsert of a new ID: one entry, the new position.
	s.Upsert([]workload.Object{obj(3, 30, 30)})
	// Upsert moving an existing object: two entries (old and new position).
	s.Upsert([]workload.Object{obj(1, 50, 50)})
	// Delete: one entry, the position the object last held.
	s.Delete([]int64{2})
	// No-op delete: no epoch, no event.
	s.Delete([]int64{999})
	// ApplyAt below the current epoch: idempotent no-op, no event.
	s.ApplyAt([]workload.Object{obj(9, 1, 1)}, nil, 1)
	// ApplyAt jumping ahead: one event spanning the jump.
	s.ApplyAt([]workload.Object{obj(4, 40, 40)}, []int64{3}, 7)

	if len(events) != 4 {
		t.Fatalf("got %d events, want 4: %+v", len(events), events)
	}
	check := func(i int, prev, epoch uint64, ids []int64, pts []geom.Vec2) {
		t.Helper()
		ev := events[i]
		if ev.Prev != prev || ev.Epoch != epoch {
			t.Fatalf("event %d: got prev=%d epoch=%d, want %d→%d", i, ev.Prev, ev.Epoch, prev, epoch)
		}
		if len(ev.IDs) != len(ids) || len(ev.Points) != len(pts) {
			t.Fatalf("event %d: got %d ids / %d points, want %d / %d", i, len(ev.IDs), len(ev.Points), len(ids), len(pts))
		}
		for j := range ids {
			if ev.IDs[j] != ids[j] || ev.Points[j] != pts[j] {
				t.Fatalf("event %d entry %d: got id=%d p=%v, want id=%d p=%v", i, j, ev.IDs[j], ev.Points[j], ids[j], pts[j])
			}
		}
	}
	check(0, 0, 1, []int64{3}, []geom.Vec2{{X: 30, Y: 30}})
	check(1, 1, 2, []int64{1, 1}, []geom.Vec2{{X: 10, Y: 10}, {X: 50, Y: 50}})
	check(2, 2, 3, []int64{2}, []geom.Vec2{{X: 20, Y: 20}})
	check(3, 3, 7, []int64{3, 4}, []geom.Vec2{{X: 30, Y: 30}, {X: 40, Y: 40}})

	cancel()
	s.Upsert([]workload.Object{obj(8, 80, 80)})
	if len(events) != 4 {
		t.Fatalf("event delivered after cancel: %+v", events[len(events)-1])
	}
}
