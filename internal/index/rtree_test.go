package index

import (
	"math/rand"
	"sort"
	"testing"

	"surfknn/internal/geom"
)

func randomItems(n int, seed int64) []Item {
	rng := rand.New(rand.NewSource(seed))
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{
			P:  geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000},
			ID: int64(i),
		}
	}
	return items
}

// knn and within are the allocating calls: a zero Scratch, a nil dst.
func knn(t *RTree, q geom.Vec2, k int, visits *int64, keep func(Item) bool) []Item {
	return t.KNNInto(q, k, visits, keep, new(Scratch), nil)
}

func bruteKNN(items []Item, q geom.Vec2, k int) []Item {
	s := append([]Item(nil), items...)
	sort.Slice(s, func(i, j int) bool { return s[i].P.Dist2(q) < s[j].P.Dist2(q) })
	if k > len(s) {
		k = len(s)
	}
	return s[:k]
}

func TestBulkLoad(t *testing.T) {
	items := randomItems(2000, 2)
	tr := Bulk(items)
	if tr.Len() != 2000 {
		t.Errorf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// All items findable by range over the whole area.
	all := tr.RangeInto(geom.MBR{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, nil, nil)
	if len(all) != 2000 {
		t.Errorf("full range = %d items", len(all))
	}
	// Empty bulk works.
	if Bulk(nil).Len() != 0 {
		t.Error("empty bulk")
	}
}

func TestKNNAgainstBruteForce(t *testing.T) {
	items := randomItems(1000, 3)
	tr := Bulk(items)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20; trial++ {
		q := geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(20)
		got := knn(tr, q, k, nil, nil)
		want := bruteKNN(items, q, k)
		if len(got) != len(want) {
			t.Fatalf("KNN returned %d items, want %d", len(got), len(want))
		}
		for i := range got {
			// Compare distances (ties may permute IDs).
			if gd, wd := got[i].P.Dist(q), want[i].P.Dist(q); gd != wd {
				t.Fatalf("k=%d item %d: dist %v, want %v", k, i, gd, wd)
			}
		}
		// Ascending order.
		for i := 1; i < len(got); i++ {
			if got[i-1].P.Dist2(q) > got[i].P.Dist2(q) {
				t.Fatal("KNN results not sorted")
			}
		}
	}
}

func TestKNNEdgeCases(t *testing.T) {
	if got := knn(Bulk(nil), geom.Vec2{}, 5, nil, nil); got != nil {
		t.Errorf("empty tree KNN = %v", got)
	}
	tr := Bulk([]Item{{P: geom.Vec2{X: 1, Y: 1}, ID: 7}})
	got := knn(tr, geom.Vec2{}, 5, nil, nil)
	if len(got) != 1 || got[0].ID != 7 {
		t.Errorf("KNN on single-item tree = %v", got)
	}
	if got := knn(tr, geom.Vec2{}, 0, nil, nil); got != nil {
		t.Errorf("k=0 should return nil, got %v", got)
	}
}

func TestRangeAgainstBruteForce(t *testing.T) {
	items := randomItems(800, 5)
	tr := Bulk(items)
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 20; trial++ {
		x, y := rng.Float64()*900, rng.Float64()*900
		region := geom.MBR{MinX: x, MinY: y, MaxX: x + 100, MaxY: y + 100}
		got := tr.RangeInto(region, nil, nil)
		want := 0
		for _, it := range items {
			if region.Contains(it.P) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("Range = %d items, want %d", len(got), want)
		}
		for _, it := range got {
			if !region.Contains(it.P) {
				t.Fatalf("item %v outside region", it)
			}
		}
	}
}

func TestWithinDist(t *testing.T) {
	items := randomItems(800, 7)
	tr := Bulk(items)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 20; trial++ {
		c := geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		r := rng.Float64() * 200
		got := tr.WithinDistInto(c, r, nil, nil)
		want := 0
		for _, it := range items {
			if it.P.Dist(c) <= r {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("WithinDist = %d, want %d", len(got), want)
		}
	}
}

func TestAccessCounting(t *testing.T) {
	items := randomItems(5000, 9)
	tr := Bulk(items)
	var knnAccesses int64
	knn(tr, geom.Vec2{X: 500, Y: 500}, 10, &knnAccesses, nil)
	if knnAccesses == 0 {
		t.Fatal("KNN accesses not counted")
	}
	// A k-NN for small k should touch far fewer nodes than a full scan.
	var fullScan int64
	tr.RangeInto(geom.MBR{MinX: 0, MinY: 0, MaxX: 1000, MaxY: 1000}, &fullScan, nil)
	if knnAccesses*5 > fullScan {
		t.Errorf("KNN touched %d nodes vs full scan %d; expected strong pruning", knnAccesses, fullScan)
	}
}

func TestDuplicatePositions(t *testing.T) {
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{P: geom.Vec2{X: 5, Y: 5}, ID: int64(i)}
	}
	tr := Bulk(items)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	got := knn(tr, geom.Vec2{X: 5, Y: 5}, 100, nil, nil)
	if len(got) != 100 {
		t.Errorf("KNN over duplicates = %d", len(got))
	}
}

func TestKNNKeep(t *testing.T) {
	items := randomItems(800, 11)
	tr := Bulk(items)
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 20; trial++ {
		q := geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		k := 1 + rng.Intn(15)

		// An all-true keep must be byte-for-byte the nil keep, including
		// visit counts.
		var vPlain, vTrue int64
		plain := knn(tr, q, k, &vPlain, nil)
		kept := knn(tr, q, k, &vTrue, func(Item) bool { return true })
		if vPlain != vTrue || len(plain) != len(kept) {
			t.Fatalf("all-true keep diverged: visits %d vs %d, len %d vs %d",
				vPlain, vTrue, len(plain), len(kept))
		}
		for i := range plain {
			if plain[i] != kept[i] {
				t.Fatalf("all-true keep item %d: %+v vs %+v", i, plain[i], kept[i])
			}
		}

		// Filtering odd IDs yields the k nearest even-ID items, full k.
		even := func(it Item) bool { return it.ID%2 == 0 }
		got := knn(tr, q, k, nil, even)
		var evenItems []Item
		for _, it := range items {
			if even(it) {
				evenItems = append(evenItems, it)
			}
		}
		want := bruteKNN(evenItems, q, k)
		if len(got) != len(want) {
			t.Fatalf("filtered KNN returned %d items, want %d", len(got), len(want))
		}
		for i := range got {
			if gd, wd := got[i].P.Dist(q), want[i].P.Dist(q); gd != wd {
				t.Fatalf("filtered item %d: dist %v, want %v", i, gd, wd)
			}
		}
	}
}
