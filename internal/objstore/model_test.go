package objstore

import (
	"testing"

	"surfknn/internal/geom"
	"surfknn/internal/obs"
	"surfknn/internal/workload"
)

// storeModel is the reference semantics of Store's writers: a plain map of
// the live objects plus the epoch counter. Every batch deletes first, then
// upserts (the last occurrence of a repeated ID wins), and is described by
// one event whose entries are computed against the state before the batch.
type storeModel struct {
	live  map[int64]workload.Object
	epoch uint64
}

// entry is one (ID, planar position) pair of an UpdateEvent.
type entry struct {
	id int64
	p  geom.Vec2
}

// apply runs one batch on the model. at == 0 is a local write, which
// publishes the next epoch only if it touched something; at > 0 is a replay,
// a no-op at or below the current epoch and a publish at exactly at past
// it. Returns the resulting epoch, the applied count, and the event
// entries (nil, with published false, when nothing is published).
func (m *storeModel) apply(upserts []workload.Object, deleteIDs []int64, at uint64, replay bool) (epoch uint64, applied int, entries []entry, published bool) {
	if replay && at <= m.epoch {
		return m.epoch, 0, nil, false
	}
	before := make(map[int64]workload.Object, len(m.live))
	for id, o := range m.live {
		before[id] = o
	}
	for _, id := range deleteIDs {
		if old, ok := before[id]; ok {
			entries = append(entries, entry{id, old.Point.XY()})
		}
		if _, ok := m.live[id]; ok {
			delete(m.live, id)
			applied++
		}
	}
	for _, o := range upserts {
		if old, ok := before[o.ID]; ok {
			entries = append(entries, entry{o.ID, old.Point.XY()})
		}
		entries = append(entries, entry{o.ID, o.Point.XY()})
		m.live[o.ID] = o
		applied++
	}
	switch {
	case replay:
		m.epoch = at
	case applied > 0:
		m.epoch++
	default:
		return m.epoch, 0, nil, false
	}
	return m.epoch, applied, entries, true
}

// pinnedView is an epoch pinned mid-sequence together with the model state
// it must keep showing until it is released.
type pinnedView struct {
	e    *Epoch
	live map[int64]workload.Object
}

// checkEpoch compares one epoch's Object, Len and Table against want.
func checkEpoch(t *testing.T, step int, e *Epoch, want map[int64]workload.Object) {
	t.Helper()
	if e.Len() != len(want) {
		t.Fatalf("step %d: epoch %d Len = %d, want %d", step, e.Seq(), e.Len(), len(want))
	}
	table := e.Table()
	if len(table) != len(want) {
		t.Fatalf("step %d: epoch %d Table has %d entries, want %d", step, e.Seq(), len(table), len(want))
	}
	for _, o := range table {
		if w, ok := want[o.ID]; !ok || w != o {
			t.Fatalf("step %d: epoch %d Table holds %+v, model has %+v (live %v)", step, e.Seq(), o, w, ok)
		}
	}
	for id := int64(0); id < modelIDs; id++ {
		got, ok := e.Object(id)
		w, wok := want[id]
		if ok != wok || got != w {
			t.Fatalf("step %d: epoch %d Object(%d) = %+v, %v; want %+v, %v", step, e.Seq(), id, got, ok, w, wok)
		}
	}
}

// modelIDs bounds the IDs the fuzz sequences use, so batches repeat IDs,
// re-insert deleted ones and delete absent ones often.
const modelIDs = 12

// FuzzStoreModel runs random sequences of Upsert, Delete and ApplyAt —
// replays at and below the current epoch, empty batches, IDs repeated
// within a batch, deletes of absent IDs, a compaction threshold taken from
// the input — against storeModel, checking every returned epoch and applied
// count, every epoch's contents, every event, that pinned epochs keep their
// version, and that the store quiesces to one live epoch.
func FuzzStoreModel(f *testing.F) {
	f.Add(uint8(3), uint8(4), []byte{0, 2, 1, 10, 3, 20, 1, 1, 1, 5, 2, 3, 1, 2, 7, 2, 4, 1, 1, 1, 9})
	f.Add(uint8(0), uint8(2), []byte{2, 0, 0, 0, 2, 1, 1, 2, 1, 4, 3, 0, 3, 3, 3, 3, 0, 2, 5, 5, 5, 5})
	f.Add(uint8(6), uint8(7), []byte{0, 3, 4, 1, 4, 2, 4, 9, 1, 0, 3, 4, 4, 6, 2, 2, 2, 1, 7, 7, 3, 8, 0})
	f.Add(uint8(1), uint8(0), []byte{4, 0, 5, 1, 2, 9, 3, 5, 11, 1, 1, 0})
	f.Fuzz(func(t *testing.T, initial, compact uint8, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		m := &storeModel{live: make(map[int64]workload.Object)}
		var base []workload.Object
		for i := 0; i < int(initial)%8; i++ {
			o := obj(int64(i), float64(i)*7, float64(i)*3)
			base = append(base, o)
			m.live[o.ID] = o
		}
		s := NewAt(base, 0)
		s.SetCompactThreshold(1 + int(compact)%10)
		reg := obs.NewRegistry()
		s.Instrument(reg)
		var publishes, appliedSum int64
		var events []UpdateEvent
		cancel := s.Subscribe(func(ev UpdateEvent) { events = append(events, ev) })
		defer cancel()

		// next consumes one input byte; an exhausted input reads as 0.
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		batch := func() ([]workload.Object, []int64) {
			n := int(next()) % 4
			ups := make([]workload.Object, 0, n)
			for i := 0; i < n; i++ {
				b := next()
				ups = append(ups, obj(int64(b)%modelIDs, float64(b/modelIDs)*5, float64(next())))
			}
			n = int(next()) % 4
			dels := make([]int64, 0, n)
			for i := 0; i < n; i++ {
				dels = append(dels, int64(next())%modelIDs)
			}
			return ups, dels
		}

		var pins []pinnedView
		for step := 0; len(ops) > 0; step++ {
			var (
				gotEpoch, wantEpoch     uint64
				gotApplied, wantApplied int
				entries                 []entry
				published               bool
			)
			prev := m.epoch
			events = events[:0]
			switch op := next(); op % 5 {
			case 0: // Upsert (possibly empty, possibly repeating IDs), which
				// returns no count: like the model, it applies every entry
				ups, _ := batch()
				gotEpoch, gotApplied = s.Upsert(ups), len(ups)
				wantEpoch, wantApplied, entries, published = m.apply(ups, nil, 0, false)
			case 1: // Delete (possibly absent or repeated IDs)
				_, dels := batch()
				gotEpoch, gotApplied = s.Delete(dels)
				wantEpoch, wantApplied, entries, published = m.apply(nil, dels, 0, false)
			case 2: // ApplyAt at, just below, or up to three past the current epoch
				ups, dels := batch()
				var at uint64
				if d := uint64(next() % 5); m.epoch+d >= 1 {
					at = m.epoch + d - 1
				}
				gotEpoch, gotApplied = s.ApplyAt(ups, dels, at)
				wantEpoch, wantApplied, entries, published = m.apply(ups, dels, at, true)
			case 3: // pin the current epoch with a copy of the model's state
				snap := make(map[int64]workload.Object, len(m.live))
				for id, o := range m.live {
					snap[id] = o
				}
				pins = append(pins, pinnedView{s.Pin(), snap})
				continue
			default: // release one pin, checking it still shows its version
				if len(pins) == 0 {
					continue
				}
				i := int(next()) % len(pins)
				checkEpoch(t, step, pins[i].e, pins[i].live)
				pins[i].e.Release()
				pins = append(pins[:i], pins[i+1:]...)
				continue
			}
			if gotEpoch != wantEpoch || s.Epoch() != wantEpoch {
				t.Fatalf("step %d: epoch = %d (Epoch() %d), want %d", step, gotEpoch, s.Epoch(), wantEpoch)
			}
			if gotApplied != wantApplied {
				t.Fatalf("step %d: applied = %d, want %d", step, gotApplied, wantApplied)
			}
			if !published {
				if len(events) != 0 {
					t.Fatalf("step %d: nothing published but got event %+v", step, events[0])
				}
			} else {
				if len(events) != 1 {
					t.Fatalf("step %d: got %d events, want 1", step, len(events))
				}
				ev := events[0]
				if ev.Prev != prev || ev.Epoch != wantEpoch {
					t.Fatalf("step %d: event %d→%d, want %d→%d", step, ev.Prev, ev.Epoch, prev, wantEpoch)
				}
				publishes++
				appliedSum += int64(wantApplied)
				if len(ev.IDs) != len(entries) || len(ev.Points) != len(entries) {
					t.Fatalf("step %d: event has %d IDs / %d points, want %d entries", step, len(ev.IDs), len(ev.Points), len(entries))
				}
				for j, en := range entries {
					if ev.IDs[j] != en.id || ev.Points[j] != en.p {
						t.Fatalf("step %d: event entry %d = (%d, %v), want (%d, %v)", step, j, ev.IDs[j], ev.Points[j], en.id, en.p)
					}
				}
			}
			checkEpoch(t, step, s.Current(), m.live)
		}
		for _, p := range pins {
			checkEpoch(t, -1, p.e, p.live)
			p.e.Release()
		}
		if reg.EpochsCreated.Value() != publishes || reg.UpdatesApplied.Value() != appliedSum {
			t.Fatalf("registry counts %d epochs / %d applied, want %d / %d",
				reg.EpochsCreated.Value(), reg.UpdatesApplied.Value(), publishes, appliedSum)
		}
		if got := s.LiveEpochs(); got != 1 {
			t.Fatalf("LiveEpochs after releasing every pin = %d, want 1", got)
		}
	})
}
