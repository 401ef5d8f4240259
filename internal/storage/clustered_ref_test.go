package storage

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/geom"
)

// The decoding fetch the query path used before the bounds took their data
// from in-memory mirrors of the records: one fully decoded ClusterRecord per
// match, handed to caller code. It stays here as the reference the touch-only
// walk is held to (pages, order, per-read accounting), as the read that pins
// the storage order core builds its level networks in, and as the read the
// older tests in this package are written against.

// Fetch reads every record valid at level (From <= level < To) whose MBR
// intersects region, page by page through the buffer pool.
func (c *Clustered) Fetch(region geom.MBR, level int32, acct *IOAccount, fn func(ClusterRecord)) error {
	for i := c.nextPage(0, region, level); i < len(c.dir); i = c.nextPage(i+1, region, level) {
		if err := c.fetchPage(c.dir[i].id, region, level, acct, fn); err != nil {
			return err
		}
	}
	return nil
}

// fetchPage pins one data page for the duration of the record scan. The
// unpin is deferred: fn is caller code, and a panic there must not leak
// the pin.
func (c *Clustered) fetchPage(id PageID, region geom.MBR, level int32, acct *IOAccount, fn func(ClusterRecord)) error {
	fr, err := c.pool.Get(id, acct)
	if err != nil {
		return err
	}
	defer c.pool.Unpin(fr, false)
	n := count(fr.Data)
	for i := 0; i < n; i++ {
		rec := readClusterRec(fr.Data[hdrSize+i*clusterRecSize:])
		if rec.From <= level && level < rec.To && rec.MBR.Intersects(region) {
			fn(rec)
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

func readClusterRec(p []byte) ClusterRecord {
	return ClusterRecord{
		ID: binary.LittleEndian.Uint64(p[0:]),
		MBR: geom.MBR{
			MinX: math.Float64frombits(binary.LittleEndian.Uint64(p[8:])),
			MinY: math.Float64frombits(binary.LittleEndian.Uint64(p[16:])),
			MaxX: math.Float64frombits(binary.LittleEndian.Uint64(p[24:])),
			MaxY: math.Float64frombits(binary.LittleEndian.Uint64(p[32:])),
		},
		From: int32(binary.LittleEndian.Uint32(p[40:])),
		To:   int32(binary.LittleEndian.Uint32(p[44:])),
	}
}

// refStore builds one clustered store of random rectangles with staggered
// validity intervals over a pool of the given capacity. Equal arguments
// give byte-identical stores and pools, so two of them replay one fetch
// sequence through identical hit/miss/eviction histories.
func refStore(t testing.TB, capacity int) (*Clustered, *BufferPool) {
	t.Helper()
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
	c, err := BuildClustered(bp, recs)
	if err != nil {
		t.Fatal(err)
	}
	bp.ResetStats()
	return c, bp
}

// TestTouchMatchesReference replays one random read sequence twice over
// identical stores — the reference Fetch and Touch — with a pool under a
// quarter of the data, so most reads miss and evict. Every read must charge
// the same accesses and misses to its account and leave the same pool-wide
// counters.
func TestTouchMatchesReference(t *testing.T) {
	const capacity = 16
	ref, refPool := refStore(t, capacity)
	tch, tchPool := refStore(t, capacity)
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
		if err := ref.Fetch(region, level, &refAcct, func(ClusterRecord) { matched++ }); err != nil {
			t.Fatal(err)
		}
		if err := tch.Touch(region, level, &tchAcct); err != nil {
			t.Fatal(err)
		}
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
	for _, bp := range []*BufferPool{refPool, tchPool} {
		if n := bp.PinnedCount(); n != 0 {
			t.Fatalf("%d frames left pinned", n)
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
	c, err := BuildClustered(NewBufferPool(NewMemFile(), 64), recs)
	if err != nil {
		t.Fatal(err)
	}
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
			if err := c.Fetch(region, level, nil, func(r ClusterRecord) { got = append(got, r.ID) }); err != nil {
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

// TestWarmTouchAllocatesNothing: a touch through a warm pool allocates
// nothing.
func TestWarmTouchAllocatesNothing(t *testing.T) {
	c, _ := refStore(t, 4096)
	region := geom.MBR{MinX: 100, MinY: 100, MaxX: 700, MaxY: 700}
	var acct IOAccount
	if err := c.Touch(region, 3, &acct); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := c.Touch(region, 3, &acct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm Touch allocates %.1f times, want 0", n)
	}
}
