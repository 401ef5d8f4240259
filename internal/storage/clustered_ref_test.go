package storage

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/geom"
)

// The callback fetch the query path used before FetchBatch and Touch: one
// fully decoded ClusterRecord per match, handed to caller code. It stays
// here as the reference the batch decode and the touch-only walk are held
// to (records, order, per-fetch page accounting), and as the read the older
// tests in this package are written against.

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

// TestBatchFetchMatchesReference replays one random fetch sequence three
// times over identical stores — the reference Fetch, FetchBatch and Touch —
// with a pool under a quarter of the data, so most fetches miss and evict. Every
// fetch must charge the same accesses and misses to its account, leave the
// same pool-wide counters, and (FetchBatch) produce the reference's records
// in the reference's order with bit-identical rectangles.
func TestBatchFetchMatchesReference(t *testing.T) {
	const capacity = 16
	ref, refPool := refStore(t, capacity)
	bat, batPool := refStore(t, capacity)
	tch, tchPool := refStore(t, capacity)
	if ref.NumPages() < 4*capacity {
		t.Fatalf("store has %d pages, too few to exercise eviction", ref.NumPages())
	}
	rng := rand.New(rand.NewSource(15))
	var batch Batch
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

		var want []ClusterRecord
		var refAcct, batAcct, tchAcct IOAccount
		if err := ref.Fetch(region, level, &refAcct, func(r ClusterRecord) { want = append(want, r) }); err != nil {
			t.Fatal(err)
		}
		if err := bat.FetchBatch(region, level, &batAcct, &batch); err != nil {
			t.Fatal(err)
		}
		if err := tch.Touch(region, level, &tchAcct); err != nil {
			t.Fatal(err)
		}
		if batAcct != refAcct || tchAcct != refAcct {
			t.Fatalf("fetch %d: account deltas: reference %+v, batch %+v, touch %+v", f, refAcct, batAcct, tchAcct)
		}
		if int64(ref.PagesFor(region, level)) != refAcct.Accesses {
			t.Fatalf("fetch %d: PagesFor = %d, fetch touched %d", f, ref.PagesFor(region, level), refAcct.Accesses)
		}
		if len(batch.IDs) != len(want) {
			t.Fatalf("fetch %d: batch holds %d records, reference %d", f, len(batch.IDs), len(want))
		}
		for i, r := range want {
			got := geom.MBR{MinX: batch.MinX[i], MinY: batch.MinY[i], MaxX: batch.MaxX[i], MaxY: batch.MaxY[i]}
			if batch.IDs[i] != r.ID || got != r.MBR {
				t.Fatalf("fetch %d record %d: batch (%d, %v), reference (%d, %v)", f, i, batch.IDs[i], got, r.ID, r.MBR)
			}
		}
		matched += len(want)
	}
	if matched == 0 {
		t.Fatal("no fetch matched any record")
	}
	if refPool.Stats() != batPool.Stats() || refPool.Stats() != tchPool.Stats() {
		t.Fatalf("pool counters: reference %+v, batch %+v, touch %+v", refPool.Stats(), batPool.Stats(), tchPool.Stats())
	}
	if st := refPool.Stats(); st.Evictions == 0 {
		t.Fatal("the fetch sequence never evicted")
	}
	for _, bp := range []*BufferPool{refPool, batPool, tchPool} {
		if n := bp.PinnedCount(); n != 0 {
			t.Fatalf("%d frames left pinned", n)
		}
	}
}

// TestWarmBatchFetchAllocatesNothing: once the batch columns have reached
// their high-water mark, a fetch through a warm pool allocates nothing.
func TestWarmBatchFetchAllocatesNothing(t *testing.T) {
	c, _ := refStore(t, 4096)
	region := geom.MBR{MinX: 100, MinY: 100, MaxX: 700, MaxY: 700}
	var batch Batch
	var acct IOAccount
	if err := c.FetchBatch(region, 3, &acct, &batch); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := c.FetchBatch(region, 3, &acct, &batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Touch(region, 3, &acct); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("warm FetchBatch+Touch allocates %.1f times, want 0", n)
	}
}
