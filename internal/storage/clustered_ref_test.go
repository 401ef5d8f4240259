package storage

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"surfknn/internal/geom"
	"surfknn/internal/obs"
)

// The fetch the query path used before the bounds took their data from
// in-memory mirrors of the records: one ClusterRecord per match, handed to
// caller code. It stays here as the reference the touch-only walk is held to
// (pages, order, per-read accounting), as the read that pins the storage
// order core builds its level networks in, and as the read the older tests in
// this package are written against.

// Fetch reads every record valid at level (From <= level < To) whose MBR
// intersects region, page by page through the buffer pool. recs is the slice
// BuildClustered sorted; page i holds recs[i*recsPerPage:(i+1)*recsPerPage].
func (c *Clustered) Fetch(recs []ClusterRecord, region geom.MBR, level int32, acct *IOAccount, fn func(ClusterRecord)) error {
	for i := c.nextPage(0, region, level); i < len(c.dir); i = c.nextPage(i+1, region, level) {
		fr, err := c.pool.Get(c.dir[i].id, acct)
		if err != nil {
			return err
		}
		c.pool.Unpin(fr, false)
		for _, rec := range recs[i*recsPerPage : min((i+1)*recsPerPage, len(recs))] {
			if rec.From <= level && level < rec.To && rec.MBR.Intersects(region) {
				fn(rec)
			}
		}
	}
	return nil
}

// PagesFor reports how many data pages a fetch of (region, level) touches,
// without touching them.
func (c *Clustered) PagesFor(region geom.MBR, level int32) int {
	n := 0
	for i := c.nextPage(0, region, level); i < len(c.dir); i = c.nextPage(i+1, region, level) {
		n++
	}
	return n
}

// refStore builds one clustered store of random rectangles with staggered
// validity intervals over a pool of the given capacity, and returns it with
// its records in storage order. Equal arguments give identical stores and
// pools, so two of them replay one fetch sequence through identical
// hit/miss/eviction histories.
func refStore(capacity int) (*Clustered, []ClusterRecord, *BufferPool) {
	rng := rand.New(rand.NewSource(14))
	recs := make([]ClusterRecord, 6000)
	for i := range recs {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		from := int32(rng.Intn(6))
		recs[i] = ClusterRecord{
			ID:   uint64(i),
			MBR:  geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*30, MaxY: y + rng.Float64()*30},
			From: from,
			To:   from + 1 + int32(rng.Intn(8)),
		}
	}
	bp := NewBufferPool(NewMemFile(), capacity)
	c := BuildClustered(bp, recs)
	bp.ResetStats()
	return c, recs, bp
}

// TestTouchMatchesReference replays one random read sequence twice over
// identical stores — the reference Fetch and Touch — with a pool under a
// quarter of the data, so most reads miss and evict. Every read must charge
// the same accesses and misses to its account and leave the same pool-wide
// counters.
func TestTouchMatchesReference(t *testing.T) {
	const capacity = 16
	ref, refRecs, refPool := refStore(capacity)
	tch, _, tchPool := refStore(capacity)
	if ref.NumPages() < 4*capacity {
		t.Fatalf("store has %d pages, too few to exercise eviction", ref.NumPages())
	}
	rng := rand.New(rand.NewSource(15))
	matched := 0
	for f := 0; f < 300; f++ {
		x, y := rng.Float64()*1100-50, rng.Float64()*1100-50
		region := geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*400, MaxY: y + rng.Float64()*400}
		switch f % 25 {
		case 0:
			region = geom.EmptyMBR()
		case 1:
			region = geom.MBR{MinX: -10, MinY: -10, MaxX: 1100, MaxY: 1100}
		}
		level := int32(rng.Intn(15) - 1)

		var refAcct, tchAcct IOAccount
		if err := ref.Fetch(refRecs, region, level, &refAcct, func(ClusterRecord) { matched++ }); err != nil {
			t.Fatal(err)
		}
		tch.Touch(region, level, &tchAcct)
		if tchAcct != refAcct {
			t.Fatalf("read %d: account deltas: reference %+v, touch %+v", f, refAcct, tchAcct)
		}
		if int64(ref.PagesFor(region, level)) != refAcct.Accesses {
			t.Fatalf("read %d: PagesFor = %d, fetch touched %d", f, ref.PagesFor(region, level), refAcct.Accesses)
		}
	}
	if matched == 0 {
		t.Fatal("no fetch matched any record")
	}
	if refPool.Stats() != tchPool.Stats() {
		t.Fatalf("pool counters: reference %+v, touch %+v", refPool.Stats(), tchPool.Stats())
	}
	if st := refPool.Stats(); st.Evictions == 0 {
		t.Fatal("the read sequence never evicted")
	}
}

// fullScan is the directory walk without the early exit: every entry whose
// page may hold a record valid at level inside region, in directory order.
func fullScan(c *Clustered, region geom.MBR, level int32) []PageID {
	var ids []PageID
	for _, meta := range c.dir {
		if meta.minFrom <= level && level < meta.maxTo && meta.mbr.Intersects(region) {
			ids = append(ids, meta.id)
		}
	}
	return ids
}

// TestTouchMatchesFullScan holds the walk's stop at the first expired entry
// to the full scan: over stores of random records with mixed validity
// intervals, at every level and for several regions, Touch accesses exactly
// the full scan's pages in the full scan's order. The pool holds every page,
// so each access moves its page to the LRU front and the list read from the
// front is the touch sequence reversed.
func TestTouchMatchesFullScan(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := make([]ClusterRecord, 2000+rng.Intn(4000))
		maxTo := int32(0)
		for i := range recs {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			from := int32(rng.Intn(10))
			to := from + 1 + int32(rng.Intn(3))
			if rng.Intn(4) == 0 {
				to = from + 1 + int32(rng.Intn(12)) // a few long-lived records
			}
			maxTo = max(maxTo, to)
			recs[i] = ClusterRecord{
				ID:   uint64(i),
				MBR:  geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*40, MaxY: y + rng.Float64()*40},
				From: from,
				To:   to,
			}
		}
		bp := NewBufferPool(NewMemFile(), 1<<12)
		c := BuildClustered(bp, recs)
		regions := []geom.MBR{geom.EmptyMBR(), {MinX: -10, MinY: -10, MaxX: 1100, MaxY: 1100}}
		for len(regions) < 8 {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			regions = append(regions, geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*500, MaxY: y + rng.Float64()*500})
		}
		tails := 0 // levels at which the last page has expired but not the first
		for level := int32(-1); level <= maxTo+1; level++ {
			if c.dir[len(c.dir)-1].maxTo <= level && level < c.dir[0].maxTo {
				tails++
			}
			for r, region := range regions {
				want := fullScan(c, region, level)
				var acct IOAccount
				c.Touch(region, level, &acct)
				if acct.Accesses != int64(len(want)) || acct.Misses != 0 {
					t.Fatalf("seed %d level %d region %d: touch %+v, full scan %d pages", seed, level, r, acct, len(want))
				}
				id := bp.head
				for i := len(want) - 1; i >= 0; i-- {
					if PageID(id) != want[i] {
						t.Fatalf("seed %d level %d region %d: access %d is page %d, full scan's %d", seed, level, r, i, id, want[i])
					}
					id = bp.next[id]
				}
			}
		}
		if tails == 0 {
			t.Fatalf("seed %d: no level leaves an expired tail for the walk to skip", seed)
		}
	}
}

// TestFetchIsStorageOrder pins the contract core's level-network builder
// relies on: BuildClustered leaves recs in storage order, i.e. at every level
// a paged fetch of the whole extent — and of a part of it — yields exactly
// the slice's subsequence of matching records, in the slice's order. The
// records carry many equal (To, Z-order) keys, so a stable and an unstable
// sort disagree about the order and only the slice knows it.
func TestFetchIsStorageOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	recs := make([]ClusterRecord, 5000)
	for i := range recs {
		// A coarse lattice of rectangles: many share a centre, hence a key.
		x, y := float64(rng.Intn(12))*80, float64(rng.Intn(12))*80
		from := int32(rng.Intn(5))
		recs[i] = ClusterRecord{
			ID:   uint64(i),
			MBR:  geom.MBR{MinX: x, MinY: y, MaxX: x + 40, MaxY: y + 40},
			From: from,
			To:   from + 1 + int32(rng.Intn(4)),
		}
	}
	c := BuildClustered(NewBufferPool(NewMemFile(), 64), recs)
	ties := 0
	for i := 1; i < len(recs); i++ {
		if recs[i].To == recs[i-1].To && zOrder(recs[i].MBR.Center()) == zOrder(recs[i-1].MBR.Center()) {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("no two records share a sort key: the order is recomputable and the test pins nothing")
	}
	whole := geom.MBR{MinX: -1, MinY: -1, MaxX: 2000, MaxY: 2000}
	part := geom.MBR{MinX: 100, MinY: 300, MaxX: 520, MaxY: 610}
	for _, region := range []geom.MBR{whole, part} {
		for level := int32(-1); level <= 9; level++ {
			var want []uint64
			for _, r := range recs {
				if r.From <= level && level < r.To && r.MBR.Intersects(region) {
					want = append(want, r.ID)
				}
			}
			var got []uint64
			if err := c.Fetch(recs, region, level, nil, func(r ClusterRecord) { got = append(got, r.ID) }); err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("level %d: fetch yields %d records, the slice holds %d matches", level, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("level %d: record %d of the fetch is %d, of the slice %d", level, i, got[i], want[i])
				}
			}
		}
	}
}

// TestWarmTouchAllocatesNothing: a touch allocates nothing, through a warm
// pool that holds every page and through one a quarter of the data, where
// most accesses miss and evict.
func TestWarmTouchAllocatesNothing(t *testing.T) {
	for _, capacity := range []int{4096, 16} {
		c, _, bp := refStore(capacity)
		region := geom.MBR{MinX: 100, MinY: 100, MaxX: 700, MaxY: 700}
		var acct IOAccount
		c.Touch(region, 3, &acct)
		c.Touch(region, 4, &acct)
		if n := testing.AllocsPerRun(20, func() {
			c.Touch(region, 3, &acct)
			c.Touch(region, 4, &acct)
		}); n != 0 {
			t.Fatalf("capacity %d: Touch allocates %.1f times, want 0", capacity, n)
		}
		if evicting := bp.Stats().Evictions > 0; evicting != (capacity < c.NumPages()) {
			t.Fatalf("capacity %d of %d pages: %d evictions", capacity, c.NumPages(), bp.Stats().Evictions)
		}
	}
}

// Property: Fetch returns exactly the records a brute-force filter selects,
// for random regions and levels.
func TestClusteredFetchAgainstBruteForce(t *testing.T) {
	pool := NewBufferPool(NewMemFile(), 4096)
	rng := rand.New(rand.NewSource(7))
	var recs []ClusterRecord
	for i := 0; i < 3000; i++ {
		x := rng.Float64() * 100
		y := rng.Float64() * 100
		from := int32(rng.Intn(5))
		recs = append(recs, ClusterRecord{
			ID:   uint64(i),
			MBR:  geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*3, MaxY: y + rng.Float64()*3},
			From: from,
			To:   from + 1 + int32(rng.Intn(5)),
		})
	}
	// Keep an un-reordered copy for the oracle.
	oracle := append([]ClusterRecord(nil), recs...)
	c := BuildClustered(pool, recs)
	for trial := 0; trial < 20; trial++ {
		x := rng.Float64() * 90
		y := rng.Float64() * 90
		region := geom.MBR{MinX: x, MinY: y, MaxX: x + 15, MaxY: y + 15}
		level := int32(rng.Intn(8))
		want := map[uint64]bool{}
		for _, r := range oracle {
			if r.From <= level && level < r.To && r.MBR.Intersects(region) {
				want[r.ID] = true
			}
		}
		got := map[uint64]bool{}
		err := c.Fetch(recs, region, level, nil, func(r ClusterRecord) {
			if got[r.ID] {
				t.Fatalf("duplicate record %d", r.ID)
			}
			got[r.ID] = true
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: fetched %d records, want %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing record %d", trial, id)
			}
		}
	}
}

// TestLRUMatchesFramePool pins the pool's replacement history to the
// byte-carrying buffer pool (frames, pins, write-back) it replaced. One
// seeded trace per capacity: a build phase that allocates 71 pages past the
// capacity, then 900 steps mixing single Get+Unpin accesses of random pages
// with random Touches. The hash covers each step's accesses, misses and the
// running eviction count, then the final Stats and registry counters; the
// literals were captured from the frame pool.
func TestLRUMatchesFramePool(t *testing.T) {
	type outcome struct {
		accesses, misses, evictions, regHits int64
		hash                                 uint64
	}
	want := map[int]outcome{
		1:  {8486, 8467, 8537, 19, 0x986eadeb1b6d9faf},
		7:  {8486, 8116, 8180, 370, 0x32a890c046c6a293},
		32: {8486, 4737, 4776, 3749, 0x93fc01055d35bbf5},
		72: {8486, 0, 0, 8486, 0x2bdcd07b00ffe872},
	}
	for _, capacity := range []int{1, 7, 32, 72} {
		rng := rand.New(rand.NewSource(26))
		recs := make([]ClusterRecord, 6000)
		for i := range recs {
			x, y := rng.Float64()*1000, rng.Float64()*1000
			from := int32(rng.Intn(6))
			recs[i] = ClusterRecord{
				ID:   uint64(i),
				MBR:  geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*30, MaxY: y + rng.Float64()*30},
				From: from,
				To:   from + 1 + int32(rng.Intn(8)),
			}
		}
		reg := obs.NewRegistry()
		bp := NewBufferPool(NewMemFile(), capacity)
		bp.Instrument(reg)
		c := BuildClustered(bp, recs)
		if c.NumPages() != 71 {
			t.Fatalf("store has %d pages, the trace was captured over 71", c.NumPages())
		}
		h := fnv.New64a()
		fmt.Fprintf(h, "build %+v|", bp.Stats().Evictions)
		for step := 0; step < 900; step++ {
			var acct IOAccount
			if step%3 == 0 {
				fr, err := bp.Get(PageID(rng.Intn(c.NumPages())), &acct)
				if err != nil {
					t.Fatal(err)
				}
				bp.Unpin(fr, false)
			} else {
				x, y := rng.Float64()*1100-50, rng.Float64()*1100-50
				region := geom.MBR{MinX: x, MinY: y, MaxX: x + rng.Float64()*300, MaxY: y + rng.Float64()*300}
				c.Touch(region, int32(rng.Intn(15)-1), &acct)
			}
			fmt.Fprintf(h, "%d %d %d|", acct.Accesses, acct.Misses, bp.Stats().Evictions)
		}
		st := bp.Stats()
		fmt.Fprintf(h, "%d %d %d|%d %d %d", st.Accesses, st.Misses, st.Evictions,
			reg.PoolHits.Value(), reg.PoolMisses.Value(), reg.PoolEvictions.Value())
		got := outcome{st.Accesses, st.Misses, st.Evictions, reg.PoolHits.Value(), h.Sum64()}
		if got != want[capacity] || reg.PoolMisses.Value() != st.Misses || reg.PoolEvictions.Value() != st.Evictions {
			t.Errorf("capacity %d: %+v (registry misses %d, evictions %d), frame pool %+v",
				capacity, got, reg.PoolMisses.Value(), reg.PoolEvictions.Value(), want[capacity])
		}
	}
}
