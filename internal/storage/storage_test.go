package storage

import (
	"errors"
	"sync"
	"testing"

	"surfknn/internal/geom"
	"surfknn/internal/obs"
)

func TestMemFileBasics(t *testing.T) {
	f := NewMemFile()
	id, err := f.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if id != 0 || f.NumPages() != 1 {
		t.Fatalf("id=%d pages=%d", id, f.NumPages())
	}
	bp := NewBufferPool(f, 4)
	if _, err := bp.Get(id, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Get(99, nil); !errors.Is(err, ErrPageOutOfRange) {
		t.Errorf("Get of an unallocated page: %v, want ErrPageOutOfRange", err)
	}
}

func TestBufferPoolHitsAndMisses(t *testing.T) {
	bp := NewBufferPool(NewMemFile(), 4)
	id := bp.alloc()
	// First Get is a hit (resident since the allocation).
	fr, err := bp.Get(id, nil)
	if err != nil {
		t.Fatal(err)
	}
	bp.Unpin(fr, false)
	st := bp.Stats()
	if st.Accesses != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBufferPoolEviction(t *testing.T) {
	bp := NewBufferPool(NewMemFile(), 2)
	var ids []PageID
	for i := 0; i < 4; i++ {
		ids = append(ids, bp.alloc())
	}
	// Pages 0 and 1 must have been evicted.
	if bp.Stats().Evictions != 2 {
		t.Errorf("evictions = %d", bp.Stats().Evictions)
	}
	// Re-reading page 0 is a miss that evicts page 2.
	var acct IOAccount
	bp.touch(ids[0], &acct)
	if acct.Misses != 1 || bp.Stats().Evictions != 3 {
		t.Errorf("account %+v, stats %+v", acct, bp.Stats())
	}
	// Page 3 stayed, page 2 went.
	bp.touch(ids[3], &acct)
	bp.touch(ids[2], &acct)
	if acct.Misses != 2 {
		t.Errorf("account %+v after a hit on page 3 and a miss on page 2", acct)
	}
}

func TestClusteredFetch(t *testing.T) {
	bp := NewBufferPool(NewMemFile(), 1024)
	var recs []ClusterRecord
	// A 10x10 grid of unit rectangles; record i valid over [0, i%5+1).
	id := uint64(0)
	for x := 0; x < 10; x++ {
		for y := 0; y < 10; y++ {
			recs = append(recs, ClusterRecord{
				ID:   id,
				MBR:  geom.MBR{MinX: float64(x), MinY: float64(y), MaxX: float64(x + 1), MaxY: float64(y + 1)},
				From: 0,
				To:   int32(id%5 + 1),
			})
			id++
		}
	}
	SortClustered(recs)
	c := PackClustered(bp, recs)
	if c.Len() != 100 {
		t.Errorf("Len = %d", c.Len())
	}
	// Fetch everything at level 0.
	seen := map[uint64]bool{}
	err := c.Fetch(recs, geom.MBR{MinX: -1, MinY: -1, MaxX: 11, MaxY: 11}, 0, nil, func(r ClusterRecord) {
		if seen[r.ID] {
			t.Fatalf("record %d fetched twice", r.ID)
		}
		seen[r.ID] = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Errorf("level-0 fetch saw %d records", len(seen))
	}
	// Level 4: only records with To == 5 (i%5 == 4).
	n := 0
	c.Fetch(recs, geom.MBR{MinX: -1, MinY: -1, MaxX: 11, MaxY: 11}, 4, nil, func(r ClusterRecord) {
		if r.To <= 4 {
			t.Fatalf("record %d invalid at level 4", r.ID)
		}
		n++
	})
	if n != 20 {
		t.Errorf("level-4 fetch saw %d records, want 20", n)
	}
	// Spatial restriction.
	n = 0
	c.Fetch(recs, geom.MBR{MinX: 0, MinY: 0, MaxX: 2.5, MaxY: 2.5}, 0, nil, func(r ClusterRecord) {
		n++
		if r.MBR.MinX > 2.5 || r.MBR.MinY > 2.5 {
			t.Fatalf("record %d outside region", r.ID)
		}
	})
	if n == 0 || n == 100 {
		t.Errorf("spatial fetch saw %d records", n)
	}
}

func TestClusteredPageAccounting(t *testing.T) {
	bp := NewBufferPool(NewMemFile(), 4096)
	var recs []ClusterRecord
	for i := 0; i < 5000; i++ {
		x := float64(i % 100)
		y := float64(i / 100)
		recs = append(recs, ClusterRecord{
			ID:  uint64(i),
			MBR: geom.MBR{MinX: x, MinY: y, MaxX: x + 1, MaxY: y + 1},
			// Half the records die at level 1, the rest at level 10.
			From: 0,
			To:   int32(1 + (i%2)*9),
		})
	}
	SortClustered(recs)
	c := PackClustered(bp, recs)
	bp.ResetStats()
	full := geom.MBR{MinX: -1, MinY: -1, MaxX: 101, MaxY: 101}
	c.Fetch(recs, full, 0, nil, func(ClusterRecord) {})
	finePages := bp.Stats().Accesses
	bp.ResetStats()
	c.Fetch(recs, full, 5, nil, func(ClusterRecord) {})
	coarsePages := bp.Stats().Accesses
	if coarsePages >= finePages {
		t.Errorf("coarse fetch (%d pages) should touch fewer pages than fine (%d)", coarsePages, finePages)
	}
	// A small region touches fewer pages than the full area.
	bp.ResetStats()
	c.Fetch(recs, geom.MBR{MinX: 0, MinY: 0, MaxX: 10, MaxY: 10}, 0, nil, func(ClusterRecord) {})
	smallPages := bp.Stats().Accesses
	if smallPages >= finePages {
		t.Errorf("small-region fetch (%d) should touch fewer pages than full (%d)", smallPages, finePages)
	}
	// PagesFor agrees with an actual fetch.
	bp.ResetStats()
	pred := c.PagesFor(full, 0)
	c.Fetch(recs, full, 0, nil, func(ClusterRecord) {})
	if int64(pred) != bp.Stats().Accesses {
		t.Errorf("PagesFor = %d, actual = %d", pred, bp.Stats().Accesses)
	}
}

// TestBufferPoolConcurrent hammers one evicting pool from many goroutines
// (run under -race by the gate), each with its own IOAccount, over
// overlapping page sets. Per-query accounts must be exact, the pool-wide
// access counter their sum, every access a hit or a miss, and the resident
// set within capacity.
func TestBufferPoolConcurrent(t *testing.T) {
	bp := NewBufferPool(NewMemFile(), 8)
	reg := obs.NewRegistry()
	bp.Instrument(reg)
	const pages = 16
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = bp.alloc()
	}
	bp.ResetStats()

	const workers = 8
	const reads = 200
	accts := make([]IOAccount, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				id := ids[(w*7+i)%pages]
				if w%2 == 0 {
					bp.touch(id, &accts[w])
					continue
				}
				fr, err := bp.Get(id, &accts[w])
				if err != nil {
					t.Errorf("worker %d: Get(%d): %v", w, id, err)
					return
				}
				bp.Unpin(fr, false)
			}
		}(w)
	}
	wg.Wait()

	var sum, misses int64
	for w := range accts {
		if accts[w].Accesses != reads {
			t.Errorf("worker %d account: %d accesses, want %d", w, accts[w].Accesses, reads)
		}
		sum += accts[w].Accesses
		misses += accts[w].Misses
	}
	st := bp.Stats()
	if st.Accesses != sum || st.Misses != misses {
		t.Errorf("pool stats %+v, want the accounts' sums %d accesses, %d misses", st, sum, misses)
	}
	if hits := reg.PoolHits.Value(); hits+st.Misses != st.Accesses {
		t.Errorf("%d hits + %d misses != %d accesses", hits, st.Misses, st.Accesses)
	}
	resident := 0
	for _, in := range bp.in {
		if in {
			resident++
		}
	}
	if resident != bp.resident || resident > bp.capacity {
		t.Errorf("%d pages resident (counted %d) in a pool of %d", resident, bp.resident, bp.capacity)
	}
}
