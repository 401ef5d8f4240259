package storage

import (
	"errors"
	"testing"
)

// evictingPool returns a full pool of the given capacity over a file of
// twice as many pages, page i holding byte(i) after its header.
func evictingPool(t *testing.T, file PageFile, capacity int) (*BufferPool, []PageID) {
	t.Helper()
	bp := NewBufferPool(file, capacity)
	ids := make([]PageID, 2*capacity)
	for i := range ids {
		fr, err := bp.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[hdrSize] = byte(i)
		ids[i] = fr.ID
		bp.Unpin(fr, true)
	}
	return bp, ids
}

// TestEvictingGetAllocatesNothing pins the frame reuse: a miss in a full
// pool takes over the victim's frame, page buffer and LRU element, so a
// cyclic scan longer than the pool — every Get a miss and an eviction —
// allocates nothing, and still reads every page's own bytes.
func TestEvictingGetAllocatesNothing(t *testing.T) {
	bp, ids := evictingPool(t, NewMemFile(), 8)
	bp.ResetStats()
	next := 0
	scan := func() {
		id := ids[next%len(ids)]
		fr, err := bp.Get(id, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := fr.Data[hdrSize]; got != byte(next%len(ids)) {
			t.Fatalf("page %d holds %d", id, got)
		}
		bp.Unpin(fr, false)
		next++
	}
	for i := 0; i < len(ids); i++ { // cycle once so the LRU order is the scan order
		scan()
	}
	const runs = 200
	before := bp.Stats()
	if n := testing.AllocsPerRun(runs, scan); n != 0 {
		t.Fatalf("evicting Get+Unpin allocates %.1f times, want 0", n)
	}
	after := bp.Stats()
	// AllocsPerRun calls the function once more than it reports, to warm up.
	if got := after.Misses - before.Misses; got != runs+1 {
		t.Fatalf("%d of %d Gets missed; the scan was meant to defeat the LRU", got, runs+1)
	}
	if got := after.Evictions - before.Evictions; got != runs+1 {
		t.Fatalf("%d evictions over %d missing Gets", got, runs+1)
	}
	if n := bp.PinnedCount(); n != 0 {
		t.Fatalf("%d frames left pinned", n)
	}
}

// TestAllocAfterEvictionIsZeroed: Alloc hands out a zeroed page even when
// its buffer last held an evicted page.
func TestAllocAfterEvictionIsZeroed(t *testing.T) {
	bp, _ := evictingPool(t, NewMemFile(), 4)
	fr, err := bp.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Unpin(fr, false)
	for i, b := range fr.Data {
		if b != 0 {
			t.Fatalf("fresh page has byte %d = %d", i, b)
		}
	}
}

// TestFailedReadAfterEvictionKeepsPoolSound: when the page read behind an
// eviction fails, the evicted frame is dropped rather than left in the LRU
// list under a page it does not hold, and the pool keeps working.
func TestFailedReadAfterEvictionKeepsPoolSound(t *testing.T) {
	ff := &faultFile{inner: NewMemFile(), failAfter: -1}
	bp, ids := evictingPool(t, ff, 4)
	if err := bp.Flush(); err != nil { // clean frames: the eviction itself needs no write
		t.Fatal(err)
	}
	ff.failAfter = 0
	if _, err := bp.Get(ids[0], nil); !errors.Is(err, errInjected) {
		t.Fatalf("Get over a failing file: %v", err)
	}
	ff.failAfter = -1
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			fr, err := bp.Get(id, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got := fr.Data[hdrSize]; got != byte(i) {
				t.Fatalf("page %d holds %d", id, got)
			}
			bp.Unpin(fr, false)
		}
	}
	if n := bp.PinnedCount(); n != 0 {
		t.Fatalf("%d frames left pinned", n)
	}
	if n := bp.lru.Len(); n > bp.capacity {
		t.Fatalf("LRU list holds %d elements over a pool of %d", n, bp.capacity)
	}
}
