package storage

import (
	"errors"
	"testing"
)

// evictingPool returns a full pool of the given capacity over a file of
// twice as many pages.
func evictingPool(capacity int) (*BufferPool, []PageID) {
	bp := NewBufferPool(NewMemFile(), capacity)
	ids := make([]PageID, 2*capacity)
	for i := range ids {
		ids[i] = bp.alloc()
	}
	return bp, ids
}

// TestEvictingGetAllocatesNothing: a cyclic scan longer than the pool —
// every Get a miss and an eviction — allocates nothing.
func TestEvictingGetAllocatesNothing(t *testing.T) {
	bp, ids := evictingPool(8)
	bp.ResetStats()
	next := 0
	scan := func() {
		fr, err := bp.Get(ids[next%len(ids)], nil)
		if err != nil {
			t.Fatal(err)
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
}

// TestFailedReadAfterEvictionKeepsPoolSound: a Get of a page that was never
// allocated, in a pool full after evictions, fails with ErrPageOutOfRange,
// counts nothing, and leaves the LRU working.
func TestFailedReadAfterEvictionKeepsPoolSound(t *testing.T) {
	bp, ids := evictingPool(4)
	before := bp.Stats()
	if _, err := bp.Get(PageID(len(ids)), nil); !errors.Is(err, ErrPageOutOfRange) {
		t.Fatalf("Get past the file: %v", err)
	}
	if bp.Stats() != before {
		t.Fatalf("a failed Get moved the counters: %+v -> %+v", before, bp.Stats())
	}
	// The last four allocated pages are resident, most recent first.
	var acct IOAccount
	for _, id := range ids[4:] {
		bp.touch(id, &acct)
	}
	if acct.Misses != 0 {
		t.Fatalf("%d misses over the resident pages", acct.Misses)
	}
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			if _, err := bp.Get(id, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if bp.resident != bp.capacity {
		t.Fatalf("%d pages resident in a full pool of %d", bp.resident, bp.capacity)
	}
}
