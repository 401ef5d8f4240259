package storage

import (
	"fmt"
	"sync"

	"surfknn/internal/obs"
)

// Stats counts buffer-pool activity. Accesses is the paper's "number of
// disk pages accessed" metric (logical page reads requested by queries);
// Misses are the subset that were not resident.
type Stats struct {
	Accesses  int64
	Misses    int64
	Evictions int64
}

// IOAccount accumulates the logical page accesses performed on behalf of
// one query. It is the per-query counterpart of the pool-wide Stats: each
// query session owns one, threads it through the paged reads it issues, and
// reads it back unsynchronised — the account is touched by exactly one
// goroutine, so concurrent queries never contend on (or corrupt) each
// other's page-access numbers.
type IOAccount struct {
	Accesses int64
	Misses   int64
}

// Frame is what Get returns. Pages carry no bytes, so it holds nothing; it
// keeps the Get/Unpin spelling of a byte-carrying pool compiling.
type Frame struct{}

// noPage ends the LRU list.
const noPage = -1

// BufferPool is an LRU of page IDs: a resident set of at most capacity pages
// with least-recently-used replacement, and the counters the paper's metric
// is read from. Page IDs are dense, so the list is intrusive — prev/next
// indexed by page ID, front = most recently used — and residency is one
// flag per page. All methods are safe for concurrent use under one mutex.
type BufferPool struct {
	mu         sync.Mutex
	file       *MemFile
	capacity   int
	resident   int
	prev, next []int32
	in         []bool
	head, tail int32
	stats      Stats
	reg        *obs.Registry // process-wide counters; nil when uninstrumented
}

// NewBufferPool returns an empty pool of the given capacity (pages) over file.
func NewBufferPool(file *MemFile, capacity int) *BufferPool {
	if capacity < 1 {
		panic(fmt.Sprintf("storage: buffer pool capacity %d", capacity))
	}
	return &BufferPool{file: file, capacity: capacity, head: noPage, tail: noPage}
}

// Instrument mirrors the pool's hit/miss/eviction activity into the
// process-wide registry (atomic counters, so readers need no pool lock).
// Call it once, before queries start; a nil registry detaches the pool.
func (bp *BufferPool) Instrument(reg *obs.Registry) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.reg = reg
}

// Stats returns a copy of the pool-wide counters.
func (bp *BufferPool) Stats() Stats {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.stats
}

// ResetStats zeroes the pool-wide counters (used between experiment runs).
func (bp *BufferPool) ResetStats() {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats = Stats{}
}

// alloc allocates a page and makes it the most recently used one. Writing a
// page is not an access, but the page it displaces counts as an eviction.
func (bp *BufferPool) alloc() PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	s0 := bp.stats
	id := PageID(bp.file.n)
	bp.file.n++
	bp.admit(id)
	bp.publish(s0)
	return id
}

// touch counts one access to page id, charged to acct when non-nil (the
// per-query account; reads outside any query pass nil): a hit moves the page
// to the front, a miss admits it there.
func (bp *BufferPool) touch(id PageID, acct *IOAccount) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	s0 := bp.stats
	bp.access(id, acct)
	bp.publish(s0)
}

// Get is touch for callers written against a byte-carrying pool: it checks
// that the page was allocated and returns an empty Frame.
func (bp *BufferPool) Get(id PageID, acct *IOAccount) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if int(id) >= bp.file.n {
		return nil, fmt.Errorf("%w: %d of %d", ErrPageOutOfRange, id, bp.file.n)
	}
	s0 := bp.stats
	bp.access(id, acct)
	bp.publish(s0)
	return &Frame{}, nil
}

// Unpin does nothing: no page is held between accesses.
func (bp *BufferPool) Unpin(*Frame, bool) {}

// access is touch with bp.mu held, counted in the pool's stats only: the
// caller publishes them to the registry.
func (bp *BufferPool) access(id PageID, acct *IOAccount) {
	bp.stats.Accesses++
	if acct != nil {
		acct.Accesses++
	}
	if int(id) < len(bp.in) && bp.in[id] {
		bp.unlink(int32(id))
		bp.pushFront(int32(id))
		return
	}
	bp.stats.Misses++
	if acct != nil {
		acct.Misses++
	}
	bp.admit(id)
}

// publish adds the pool's activity since the stats read s0 to the registry:
// one atomic add per counter for however many pages the caller accessed
// under one hold of bp.mu, which it still holds.
func (bp *BufferPool) publish(s0 Stats) {
	if bp.reg == nil {
		return
	}
	misses := bp.stats.Misses - s0.Misses
	bp.reg.PoolHits.Add(bp.stats.Accesses - s0.Accesses - misses)
	bp.reg.PoolMisses.Add(misses)
	bp.reg.PoolEvictions.Add(bp.stats.Evictions - s0.Evictions)
}

// admit makes the non-resident page id the most recently used, evicting the
// least recently used page when the pool is full. Callers hold bp.mu.
func (bp *BufferPool) admit(id PageID) {
	for int(id) >= len(bp.in) {
		bp.prev = append(bp.prev, noPage)
		bp.next = append(bp.next, noPage)
		bp.in = append(bp.in, false)
	}
	if bp.resident == bp.capacity {
		victim := bp.tail
		bp.unlink(victim)
		bp.in[victim] = false
		bp.resident--
		bp.stats.Evictions++
	}
	bp.pushFront(int32(id))
	bp.in[id] = true
	bp.resident++
}

func (bp *BufferPool) unlink(id int32) {
	p, n := bp.prev[id], bp.next[id]
	if p == noPage {
		bp.head = n
	} else {
		bp.next[p] = n
	}
	if n == noPage {
		bp.tail = p
	} else {
		bp.prev[n] = p
	}
}

func (bp *BufferPool) pushFront(id int32) {
	bp.prev[id], bp.next[id] = noPage, bp.head
	if bp.head == noPage {
		bp.tail = id
	} else {
		bp.prev[bp.head] = id
	}
	bp.head = id
}
