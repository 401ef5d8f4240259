package index

import (
	"bytes"
	"container/heap"
	"encoding/binary"
	"math/rand"
	"os"
	"testing"

	"surfknn/internal/geom"
)

// refHeap drives the flat traversal through the real container/heap, as the
// pre-SoA implementation did. The concrete heap in knn.go must reproduce
// its pop order exactly — including among equal distances — because golden
// visit counts depend on it.
type refHeap []knnEntry

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(knnEntry)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

func refKNN(t *RTree, q geom.Vec2, k int, visits *int64) []Item {
	if k <= 0 || t.Len() == 0 {
		return nil
	}
	pq := &refHeap{}
	heap.Push(pq, knnEntry{dist: t.mbr[0].DistToPoint(q), ni: 0})
	var out []Item
	for pq.Len() > 0 && len(out) < k {
		e := heap.Pop(pq).(knnEntry)
		if e.leaf {
			out = append(out, e.item)
			continue
		}
		visit(visits)
		lo, n := t.start[e.ni], t.count[e.ni]
		if t.leaf[e.ni] {
			for _, it := range t.items[lo : lo+n] {
				heap.Push(pq, knnEntry{dist: it.P.Dist(q), item: it, leaf: true})
			}
			continue
		}
		for c := lo; c < lo+n; c++ {
			heap.Push(pq, knnEntry{dist: t.mbr[c].DistToPoint(q), ni: c})
		}
	}
	return out
}

func TestConcreteHeapMatchesContainerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	// A lattice with many duplicated coordinates forces distance ties, the
	// case where heap tie order actually matters.
	var items []Item
	id := int64(0)
	for x := 0; x < 30; x++ {
		for y := 0; y < 30; y++ {
			items = append(items, Item{P: geom.Vec2{X: float64(x), Y: float64(y)}, ID: id})
			id++
		}
	}
	tr := Bulk(items)
	for trial := 0; trial < 50; trial++ {
		q := geom.Vec2{X: float64(rng.Intn(30)), Y: float64(rng.Intn(30))}
		k := 1 + rng.Intn(40)
		var vWant, vGot int64
		want := refKNN(tr, q, k, &vWant)
		got := knn(tr, q, k, &vGot, nil)
		if vWant != vGot {
			t.Fatalf("trial %d: visits %d != reference %d", trial, vGot, vWant)
		}
		if len(want) != len(got) {
			t.Fatalf("trial %d: %d items != reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d item %d: %+v != reference %+v (tie order diverged)",
					trial, i, got[i], want[i])
			}
		}
	}
}

func TestFlatRoundTrip(t *testing.T) {
	items := randomItems(2000, 21)
	tr := Bulk(items)
	loaded, err := FromFlat(tr.Flatten())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != tr.Len() {
		t.Fatalf("Len = %d, want %d", loaded.Len(), tr.Len())
	}
	if err := loaded.Validate(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 20; trial++ {
		q := geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		var v1, v2 int64
		a := knn(tr, q, 10, &v1, nil)
		b := knn(loaded, q, 10, &v2, nil)
		if v1 != v2 || len(a) != len(b) {
			t.Fatalf("loaded tree diverged: visits %d/%d lens %d/%d", v1, v2, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("item %d: %+v != %+v", i, a[i], b[i])
			}
		}
		region := geom.MBR{MinX: q.X, MinY: q.Y, MaxX: q.X + 150, MaxY: q.Y + 150}
		ra, rb := tr.RangeInto(region, nil, nil), loaded.RangeInto(region, nil, nil)
		if len(ra) != len(rb) {
			t.Fatalf("range diverged: %d vs %d", len(ra), len(rb))
		}
	}
	// Empty round-trips, from the empty tree's own buffers and from none.
	for _, f := range []Flat{Bulk(nil).Flatten(), {}} {
		if empty, err := FromFlat(f); err != nil || empty.Len() != 0 {
			t.Errorf("empty flat round-trip: %v", err)
		}
	}
}

// TestBulkGolden pins Bulk's output arrays byte for byte against the
// packing captured at commit 9498584 (when Bulk still shared its pointer
// tree with Insert) for one fixed item set: 1100 items, so 35 leaves under
// 2 internal nodes under the root — every strPack/strPackNodes branch.
func TestBulkGolden(t *testing.T) {
	f := Bulk(randomItems(1100, 31)).Flatten()
	var got bytes.Buffer
	put := func(v any) {
		if err := binary.Write(&got, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	put(uint32(len(f.Leaf)))
	for i := range f.Leaf {
		put(f.Leaf[i])
		put([4]float64{f.MBR[i].MinX, f.MBR[i].MinY, f.MBR[i].MaxX, f.MBR[i].MaxY})
		put(f.Start[i])
		put(f.Count[i])
	}
	put(uint32(len(f.Items)))
	for _, it := range f.Items {
		put([2]float64{it.P.X, it.P.Y})
		put(it.ID)
	}
	want, err := os.ReadFile("testdata/bulk_1100_31.flat")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("Bulk packing drifted from the golden (%d bytes vs %d)", got.Len(), len(want))
	}
}

// TestFromFlatRejectsBadLayout: the searches follow start/count blindly, so
// FromFlat must refuse every shape that is not a breadth-first tree.
func TestFromFlatRejectsBadLayout(t *testing.T) {
	box := geom.MBR{MaxX: 1, MaxY: 1}
	items := []Item{{ID: 1}, {ID: 2}}
	for name, f := range map[string]Flat{
		"one-node cycle": {
			Leaf: []bool{false}, MBR: []geom.MBR{box}, Start: []int32{0}, Count: []int32{1},
		},
		"two-node back-edge": {
			Leaf: []bool{false, false}, MBR: []geom.MBR{box, box}, Start: []int32{1, 0}, Count: []int32{1, 1},
		},
		"shared child": {
			Leaf: []bool{false, false, true}, MBR: []geom.MBR{box, box, box},
			Start: []int32{1, 2, 0}, Count: []int32{2, 1, 2}, Items: items,
		},
		"unreachable node": {
			Leaf: []bool{true, true}, MBR: []geom.MBR{box, box}, Start: []int32{0, 0}, Count: []int32{1, 1}, Items: items,
		},
		"children past the node array": {
			Leaf: []bool{false, true}, MBR: []geom.MBR{box, box}, Start: []int32{1, 0}, Count: []int32{2, 2}, Items: items,
		},
		"leaf range past the item slab": {
			Leaf: []bool{true}, MBR: []geom.MBR{box}, Start: []int32{1}, Count: []int32{2}, Items: items,
		},
		"negative count": {
			Leaf: []bool{true}, MBR: []geom.MBR{box}, Start: []int32{0}, Count: []int32{-1}, Items: items,
		},
		"ragged arrays": {
			Leaf: []bool{true}, MBR: []geom.MBR{box}, Start: []int32{0}, Items: items,
		},
		"items without nodes": {Items: items},
	} {
		if _, err := FromFlat(f); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestKNNIntoWarmDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	items := randomItems(5000, 29)
	tr := Bulk(items)
	var sc Scratch
	dst := make([]Item, 0, 64)
	buf := make([]Item, 0, 6000)
	q := geom.Vec2{X: 500, Y: 500}
	region := geom.MBR{MinX: 100, MinY: 100, MaxX: 600, MaxY: 600}
	// Warm the scratch and buffers to their high-water marks.
	dst = tr.KNNInto(q, 50, nil, nil, &sc, dst[:0])
	buf = tr.RangeInto(region, nil, buf[:0])
	buf = tr.WithinDistInto(q, 300, nil, buf[:0])
	if n := testing.AllocsPerRun(20, func() {
		dst = tr.KNNInto(q, 50, nil, nil, &sc, dst[:0])
		buf = tr.RangeInto(region, nil, buf[:0])
		buf = tr.WithinDistInto(q, 300, nil, buf[:0])
	}); n != 0 {
		t.Fatalf("warm searches allocate %.1f times per run, want 0", n)
	}
}
