package objstore

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"surfknn/internal/geom"
	"surfknn/internal/index"
	"surfknn/internal/mesh"
	"surfknn/internal/obs"
	"surfknn/internal/workload"
)

// obj makes a synthetic object at (x, y); objstore never dereferences the
// face or elevation, so flat points are fine for unit tests.
func obj(id int64, x, y float64) workload.Object {
	return workload.Object{ID: id, Point: mesh.SurfacePoint{Pos: geom.Vec3{X: x, Y: y}}}
}

func grid(n int) []workload.Object {
	objs := make([]workload.Object, n)
	for i := range objs {
		objs[i] = obj(int64(i), float64(i%10)*10, float64(i/10)*10)
	}
	return objs
}

// liveIDs returns the sorted ID set of e's table.
func liveIDs(e *Epoch) []int64 {
	out := make([]int64, 0, e.Len())
	for _, o := range e.Table() {
		out = append(out, o.ID)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestUpsertDeleteVisibility(t *testing.T) {
	t.Parallel()
	s := NewAt(grid(5), 0)
	if got := s.Epoch(); got != 0 {
		t.Fatalf("initial epoch = %d, want 0", got)
	}

	e1 := s.Upsert([]workload.Object{obj(100, 5, 5)})
	if e1 != 1 {
		t.Fatalf("epoch after insert = %d, want 1", e1)
	}
	if _, ok := s.Current().Object(100); !ok {
		t.Fatal("inserted object not visible in current epoch")
	}

	// Replace a base object: ID 2 moves.
	s.Upsert([]workload.Object{obj(2, 99, 99)})
	if o, ok := s.Current().Object(2); !ok || o.Point.Pos.X != 99 {
		t.Fatalf("upserted object = %+v ok=%v, want moved to x=99", o, ok)
	}
	if got, want := s.Current().Len(), 6; got != want {
		t.Fatalf("Len = %d, want %d (upsert must not duplicate)", got, want)
	}

	// Delete one base and one delta object.
	epoch, removed := s.Delete([]int64{0, 100, 777})
	if removed != 2 {
		t.Fatalf("Delete removed = %d, want 2", removed)
	}
	if epoch != 3 {
		t.Fatalf("epoch after delete = %d, want 3", epoch)
	}
	if _, ok := s.Current().Object(0); ok {
		t.Fatal("deleted base object still visible")
	}
	if _, ok := s.Current().Object(100); ok {
		t.Fatal("deleted delta object still visible")
	}
	want := []int64{1, 2, 3, 4}
	if got := liveIDs(s.Current()); len(got) != len(want) {
		t.Fatalf("live IDs = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("live IDs = %v, want %v", got, want)
			}
		}
	}

	// Deleting nothing publishes nothing.
	epoch2, removed2 := s.Delete([]int64{0, 777})
	if removed2 != 0 || epoch2 != epoch {
		t.Fatalf("no-op delete = (%d, %d), want (%d, 0)", epoch2, removed2, epoch)
	}
}

func TestPinSeesOneVersion(t *testing.T) {
	t.Parallel()
	s := NewAt(grid(4), 0)
	pinned := s.Pin()
	s.Upsert([]workload.Object{obj(50, 1, 1)})
	s.Delete([]int64{0})

	if pinned.Seq() != 0 {
		t.Fatalf("pinned epoch seq = %d, want 0", pinned.Seq())
	}
	if _, ok := pinned.Object(50); ok {
		t.Fatal("pinned epoch sees an object inserted after the pin")
	}
	if _, ok := pinned.Object(0); !ok {
		t.Fatal("pinned epoch lost an object deleted after the pin")
	}
	if got := s.LiveEpochs(); got != 2 {
		t.Fatalf("LiveEpochs with one pin held = %d, want 2 (pinned + current)", got)
	}
	pinned.Release()
	if got := s.LiveEpochs(); got != 1 {
		t.Fatalf("LiveEpochs after release = %d, want 1", got)
	}
}

func TestReclamationCounts(t *testing.T) {
	t.Parallel()
	reg := obs.NewRegistry()
	s := NewAt(grid(4), 0)
	s.Instrument(reg)
	for i := 0; i < 10; i++ {
		e := s.Pin()
		s.Upsert([]workload.Object{obj(int64(1000+i), float64(i), float64(i))})
		e.Release()
	}
	if got := s.LiveEpochs(); got != 1 {
		t.Fatalf("LiveEpochs after quiesce = %d, want 1", got)
	}
	created, reclaimed := reg.EpochsCreated.Value(), reg.EpochsReclaimed.Value()
	if created != 10 || reclaimed != created {
		t.Fatalf("epochs created/reclaimed = %d/%d, want 10/10", created, reclaimed)
	}
	if got := reg.UpdatesApplied.Value(); got != 10 {
		t.Fatalf("UpdatesApplied = %d, want 10", got)
	}
	if got := reg.Epoch.Value(); got != 10 {
		t.Fatalf("Epoch gauge = %d, want 10", got)
	}
	if got := reg.UpdateBatch().Count(); got != 10 {
		t.Fatalf("UpdateBatch count = %d, want 10", got)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	t.Parallel()
	s := NewAt(grid(1), 0)
	e := s.Pin()
	e.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release should panic")
		}
	}()
	e.Release()
}

func TestCompactionPreservesContents(t *testing.T) {
	t.Parallel()
	s := NewAt(grid(10), 0)
	s.SetCompactThreshold(4)
	for i := 0; i < 20; i++ {
		if i%3 == 2 {
			s.Delete([]int64{int64(i % 10)})
		} else {
			s.Upsert([]workload.Object{obj(int64(200+i), float64(i), float64(i))})
		}
	}
	cur := s.Current()
	// Epoch sanity: every Object lookup agrees with Table membership.
	seen := make(map[int64]bool)
	for _, o := range cur.Table() {
		if seen[o.ID] {
			t.Fatalf("duplicate ID %d in table", o.ID)
		}
		seen[o.ID] = true
		if got, ok := cur.Object(o.ID); !ok || got != o {
			t.Fatalf("Object(%d) = %+v ok=%v, want %+v", o.ID, got, ok, o)
		}
	}
	if cur.Len() != len(cur.Table()) {
		t.Fatalf("Len = %d but Table has %d entries", cur.Len(), len(cur.Table()))
	}
}

// TestKNNMatchesBruteForce cross-checks the merged (base+delta) KNNInto and
// WithinDistInto against linear scans over the table, across compaction
// states.
func TestKNNMatchesBruteForce(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(99))
	s := NewAt(grid(30), 0)
	s.SetCompactThreshold(8)
	for step := 0; step < 50; step++ {
		switch rng.Intn(3) {
		case 0:
			s.Upsert([]workload.Object{obj(rng.Int63n(60), rng.Float64()*100, rng.Float64()*100)})
		case 1:
			s.Delete([]int64{rng.Int63n(60)})
		default:
			q := geom.Vec2{X: rng.Float64() * 100, Y: rng.Float64() * 100}
			e := s.Pin()
			table := e.Table()

			k := 1 + rng.Intn(5)
			got := e.KNNInto(q, k, nil, new(index.Scratch), nil)
			wantDists := make([]float64, 0, len(table))
			for _, o := range table {
				wantDists = append(wantDists, o.Point.XY().Dist(q))
			}
			sort.Float64s(wantDists)
			if k > len(wantDists) {
				k = len(wantDists)
			}
			if len(got) != k {
				t.Fatalf("step %d: KNN returned %d items, want %d", step, len(got), k)
			}
			for i, it := range got {
				if d := it.P.Dist(q); d != wantDists[i] {
					t.Fatalf("step %d: KNN[%d] dist = %v, want %v", step, i, d, wantDists[i])
				}
			}

			r := rng.Float64() * 40
			inRange := make(map[int64]bool)
			for _, o := range table {
				if o.Point.XY().Dist(q) <= r {
					inRange[o.ID] = true
				}
			}
			gotRange := e.WithinDistInto(q, r, nil, nil)
			if len(gotRange) != len(inRange) {
				t.Fatalf("step %d: WithinDist returned %d items, want %d", step, len(gotRange), len(inRange))
			}
			for _, it := range gotRange {
				if !inRange[it.ID] {
					t.Fatalf("step %d: WithinDist returned %d outside radius", step, it.ID)
				}
			}
			e.Release()
		}
	}
}

// TestSearchesMatchRetiredTwinPaths pins Epoch.KNNInto/WithinDistInto — one
// in-place path for every epoch shape — to what commit 9498584 returned
// through its two paths (quiesced delegation; allocate-filter-merge via the
// since-deleted KNN/WithinDist): same items in the same order, same node
// visits. The literals were captured there. The overlay epoch carries 40
// delta objects (an overlay tree of two leaves), two moved base objects and
// object 300 placed exactly on base object 54, the base-wins-ties case.
func TestSearchesMatchRetiredTwinPaths(t *testing.T) {
	t.Parallel()
	var add []workload.Object
	for i := 0; i < 40; i++ {
		add = append(add, obj(int64(200+i), float64(i%8)*12+3, float64(i/8)*17+4))
	}
	s := NewAt(grid(100), 0)
	epochs := map[string]*Epoch{"quiesced": s.Pin()}
	s.Delete([]int64{11, 12, 45, 46, 47, 90})
	epochs["tombstones"] = s.Pin()
	s.Upsert(add)
	s.Upsert([]workload.Object{obj(33, 91, 3), obj(55, 41, 52), obj(300, 40, 50)})
	epochs["overlay"] = s.Pin()
	s2 := NewAt(grid(100), 0)
	s2.Upsert(add)
	epochs["delta-only"] = s2.Pin()
	defer func() {
		for _, e := range epochs {
			e.Release()
		}
	}()

	type search struct {
		epoch  string
		p      geom.Vec2
		k      int     // k-NN when > 0 ...
		r      float64 // ... else within distance r
		ids    []int64
		visits int64
	}
	for _, c := range []search{
		{"quiesced", geom.Vec2{X: 42, Y: 51}, 6, 0, []int64{54, 55, 64, 44, 53, 65}, 3},
		{"quiesced", geom.Vec2{X: 10, Y: 20}, 1, 0, []int64{21}, 2},
		{"quiesced", geom.Vec2{X: 95, Y: 5}, 12, 0, []int64{9, 19, 8, 18, 29, 28, 39, 7, 17, 38, 27, 49}, 3},
		{"quiesced", geom.Vec2{X: 42, Y: 51}, 0, 15, []int64{45, 44, 55, 53, 54, 65, 63, 64}, 3},
		{"quiesced", geom.Vec2{X: 10, Y: 20}, 0, 0, []int64{21}, 2},
		{"quiesced", geom.Vec2{X: 50, Y: 50}, 0, 31.5, []int64{25, 35, 34, 33, 45, 43, 44, 36, 37, 46, 47, 58, 57, 66, 67, 77, 76, 56, 55, 52, 53, 54, 65, 63, 64, 75, 73, 74, 85}, 4},
		{"tombstones", geom.Vec2{X: 42, Y: 51}, 6, 0, []int64{54, 55, 64, 44, 53, 65}, 3},
		{"tombstones", geom.Vec2{X: 10, Y: 20}, 1, 0, []int64{21}, 2},
		{"tombstones", geom.Vec2{X: 95, Y: 5}, 12, 0, []int64{9, 19, 8, 18, 29, 28, 39, 7, 17, 38, 27, 49}, 3},
		{"tombstones", geom.Vec2{X: 42, Y: 51}, 0, 15, []int64{44, 55, 53, 54, 65, 63, 64}, 3},
		{"tombstones", geom.Vec2{X: 10, Y: 20}, 0, 0, []int64{21}, 2},
		{"tombstones", geom.Vec2{X: 50, Y: 50}, 0, 31.5, []int64{25, 35, 34, 33, 43, 44, 36, 37, 58, 57, 66, 67, 77, 76, 56, 55, 52, 53, 54, 65, 63, 64, 75, 73, 74, 85}, 4},
		{"delta-only", geom.Vec2{X: 42, Y: 51}, 6, 0, []int64{54, 227, 55, 64, 228, 44}, 5},
		{"delta-only", geom.Vec2{X: 10, Y: 20}, 1, 0, []int64{21}, 4},
		{"delta-only", geom.Vec2{X: 95, Y: 5}, 12, 0, []int64{9, 19, 207, 8, 18, 29, 215, 206, 28, 39, 7, 17}, 5},
		{"delta-only", geom.Vec2{X: 42, Y: 51}, 0, 15, []int64{45, 44, 55, 53, 54, 65, 63, 64, 219, 227, 228}, 5},
		{"delta-only", geom.Vec2{X: 10, Y: 20}, 0, 0, []int64{21}, 4},
		{"delta-only", geom.Vec2{X: 50, Y: 50}, 0, 31.5, []int64{25, 35, 34, 33, 45, 43, 44, 36, 37, 46, 47, 58, 57, 66, 67, 77, 76, 56, 55, 52, 53, 54, 65, 63, 64, 75, 73, 74, 85, 212, 211, 220, 221, 219, 222, 218, 230, 227, 228, 229, 226, 236, 235, 237}, 7},
		{"overlay", geom.Vec2{X: 42, Y: 51}, 6, 0, []int64{55, 54, 300, 227, 64, 228}, 6},
		{"overlay", geom.Vec2{X: 10, Y: 20}, 1, 0, []int64{21}, 4},
		{"overlay", geom.Vec2{X: 95, Y: 5}, 12, 0, []int64{33, 9, 19, 207, 8, 18, 29, 215, 206, 28, 39, 7}, 5},
		{"overlay", geom.Vec2{X: 42, Y: 51}, 0, 15, []int64{44, 53, 54, 65, 63, 64, 219, 300, 55, 228, 227}, 6},
		{"overlay", geom.Vec2{X: 10, Y: 20}, 0, 0, []int64{21}, 4},
		{"overlay", geom.Vec2{X: 50, Y: 50}, 0, 31.5, []int64{25, 35, 34, 43, 44, 36, 37, 58, 57, 66, 67, 77, 76, 56, 52, 53, 54, 65, 63, 64, 75, 73, 74, 85, 212, 211, 222, 219, 221, 220, 218, 300, 55, 228, 230, 227, 229, 226, 235, 237, 236}, 7},
	} {
		e := epochs[c.epoch]
		// A non-empty dst must be appended to, not merged into.
		dst := []index.Item{{ID: -1}}
		var visits int64
		if c.k > 0 {
			dst = e.KNNInto(c.p, c.k, &visits, new(index.Scratch), dst)
		} else {
			dst = e.WithinDistInto(c.p, c.r, &visits, dst)
		}
		got := make([]int64, 0, len(dst))
		for _, it := range dst {
			got = append(got, it.ID)
		}
		want := append([]int64{-1}, c.ids...)
		if !reflect.DeepEqual(got, want) || visits != c.visits {
			t.Errorf("%s epoch, p=%v k=%d r=%v:\n got %v, %d visits\nwant %v, %d visits",
				c.epoch, c.p, c.k, c.r, got, visits, want, c.visits)
		}
	}
}

// TestConcurrentPinRelease hammers pin/release against a writer; run under
// -race this proves the refcount protocol and epoch immutability.
func TestConcurrentPinRelease(t *testing.T) {
	t.Parallel()
	s := NewAt(grid(20), 0)
	s.SetCompactThreshold(6)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q := geom.Vec2{X: float64(10 * g), Y: 30}
			for {
				select {
				case <-stop:
					return
				default:
				}
				e := s.Pin()
				seq := e.Seq()
				items := e.KNNInto(q, 3, nil, new(index.Scratch), nil)
				for _, it := range items {
					if _, ok := e.Object(it.ID); !ok {
						t.Errorf("epoch %d: KNN item %d not in same epoch's table", seq, it.ID)
					}
				}
				if e.Seq() != seq {
					t.Errorf("epoch seq changed under pin: %d -> %d", seq, e.Seq())
				}
				e.Release()
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		if i%4 == 3 {
			s.Delete([]int64{int64(i % 20)})
		} else {
			s.Upsert([]workload.Object{obj(int64(300+i%30), float64(i%50), float64(i%40))})
		}
	}
	close(stop)
	wg.Wait()
	if got := s.LiveEpochs(); got != 1 {
		t.Fatalf("LiveEpochs after quiesce = %d, want 1", got)
	}
}

func TestApplyAtLockstepEpochs(t *testing.T) {
	t.Parallel()
	s := NewAt(grid(5), 0)

	// A logical update touching nothing on this shard still publishes the
	// assigned epoch, keeping a shard fleet in lockstep.
	e, n := s.ApplyAt(nil, nil, 3)
	if e != 3 || n != 0 {
		t.Fatalf("empty ApplyAt = (%d, %d), want (3, 0)", e, n)
	}

	// Deletes apply before upserts; both count as touched.
	e, n = s.ApplyAt([]workload.Object{obj(100, 5, 5), obj(2, 99, 99)}, []int64{0}, 4)
	if e != 4 || n != 3 {
		t.Fatalf("ApplyAt = (%d, %d), want (4, 3)", e, n)
	}
	cur := s.Current()
	if _, ok := cur.Object(0); ok {
		t.Fatal("deleted object 0 still visible")
	}
	if o, ok := cur.Object(2); !ok || o.Point.Pos.X != 99 {
		t.Fatalf("upserted object 2 = %+v ok=%v, want moved to x=99", o, ok)
	}
	if _, ok := cur.Object(100); !ok {
		t.Fatal("inserted object 100 not visible")
	}
	if got, want := cur.Len(), 5; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}

	// Replay is idempotent: an epoch at or below the current one is a no-op.
	e, n = s.ApplyAt([]workload.Object{obj(200, 1, 1)}, nil, 4)
	if e != 4 || n != 0 {
		t.Fatalf("replayed ApplyAt = (%d, %d), want (4, 0)", e, n)
	}
	if _, ok := s.Current().Object(200); ok {
		t.Fatal("replayed upsert must not apply")
	}

	// Deleting an object that lives in the delta layer repacks it.
	e, n = s.ApplyAt(nil, []int64{100}, 7)
	if e != 7 || n != 1 {
		t.Fatalf("delta delete ApplyAt = (%d, %d), want (7, 1)", e, n)
	}
	if _, ok := s.Current().Object(100); ok {
		t.Fatal("delta-deleted object 100 still visible")
	}
	if got := s.Epoch(); got != 7 {
		t.Fatalf("epoch = %d, want 7", got)
	}
}
