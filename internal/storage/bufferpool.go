package storage

import (
	"container/list"
	"fmt"
	"sync"

	"surfknn/internal/obs"
)

// Stats counts buffer-pool activity. Accesses is the paper's "number of
// disk pages accessed" metric (logical page reads requested by queries);
// Misses are the subset that had to hit the page file.
type Stats struct {
	Accesses  int64
	Misses    int64
	Evictions int64
	Writes    int64
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

// Frame is a pinned page in the buffer pool. Data is valid until Unpin.
// Pinned frames are never evicted, so concurrent readers may use Data
// without holding any pool lock; the pin/dirty bookkeeping itself is
// guarded by the pool's mutex.
type Frame struct {
	ID    PageID
	Data  []byte
	pins  int
	dirty bool
	elem  *list.Element
}

// BufferPool caches pages with LRU replacement. Pinned pages are never
// evicted. All methods are safe for concurrent use: the frame table, LRU
// list, pin counts and pool-wide stats are guarded by one mutex (page-file
// reads on a miss happen under it too — the backing files are memory or
// local disk, and hit-path readers touch pinned Data without any lock).
// Per-query access accounting goes through the IOAccount passed to Get,
// which needs no locking because each query owns its account.
type BufferPool struct {
	mu       sync.Mutex
	file     PageFile
	capacity int
	frames   map[PageID]*Frame
	lru      *list.List // front = most recently used; holds unpinned frames
	stats    Stats
	reg      *obs.Registry // process-wide counters; nil when uninstrumented
}

// Instrument mirrors the pool's hit/miss/eviction activity into the
// process-wide registry (atomic counters, so readers need no pool lock).
// Call it once, before queries start; a nil registry detaches the pool.
func (bp *BufferPool) Instrument(reg *obs.Registry) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.reg = reg
}

// NewBufferPool wraps file with a pool of the given capacity (pages).
func NewBufferPool(file PageFile, capacity int) *BufferPool {
	if capacity < 1 {
		panic(fmt.Sprintf("storage: buffer pool capacity %d", capacity))
	}
	return &BufferPool{
		file:     file,
		capacity: capacity,
		frames:   make(map[PageID]*Frame, capacity),
		lru:      list.New(),
	}
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

// Alloc allocates a fresh page and returns it pinned.
func (bp *BufferPool) Alloc() (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	id, err := bp.file.Alloc()
	if err != nil {
		return nil, err
	}
	fr, err := bp.admit(id)
	if err != nil {
		return nil, err
	}
	clear(fr.Data) // a reused buffer still holds the evicted page
	fr.dirty = true
	bp.frames[id] = fr
	return fr, nil
}

// Get returns the page pinned, fetching it from the file on a miss. acct,
// when non-nil, receives the per-query access accounting (the paper's
// logical page-access metric); reads issued outside any query (index
// construction, persistence) pass nil.
func (bp *BufferPool) Get(id PageID, acct *IOAccount) (*Frame, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	bp.stats.Accesses++
	if acct != nil {
		acct.Accesses++
	}
	if fr, ok := bp.frames[id]; ok {
		if bp.reg != nil {
			bp.reg.PoolHits.Add(1)
		}
		// The frame keeps its LRU element while pinned (eviction skips
		// pinned frames); re-pinning therefore never churns list elements,
		// which keeps the warm hit path allocation-free.
		fr.pins++
		return fr, nil
	}
	bp.stats.Misses++
	if acct != nil {
		acct.Misses++
	}
	if bp.reg != nil {
		bp.reg.PoolMisses.Add(1)
	}
	fr, err := bp.admit(id)
	if err != nil {
		return nil, err
	}
	if err := bp.file.ReadPage(id, fr.Data); err != nil {
		if fr.elem != nil {
			// An evicted frame that got no page: it is in no table, so it
			// must not stay in the LRU list either.
			bp.lru.Remove(fr.elem)
			fr.elem = nil
		}
		return nil, err
	}
	bp.frames[id] = fr
	return fr, nil
}

// Unpin releases one pin; dirty marks the page for write-back.
func (bp *BufferPool) Unpin(fr *Frame, dirty bool) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr.pins <= 0 {
		panic(fmt.Sprintf("storage: unpin of unpinned page %d", fr.ID))
	}
	if dirty {
		fr.dirty = true
	}
	fr.pins--
	if fr.pins == 0 {
		if fr.elem == nil {
			fr.elem = bp.lru.PushFront(fr)
		} else {
			bp.lru.MoveToFront(fr.elem)
		}
	}
}

// admit returns a frame for page id, pinned once and not yet in the frame
// table. Below capacity that is a new frame; at capacity the least recently
// used unpinned frame is evicted and the frame itself — page buffer and LRU
// element included — is handed to the new page, so a miss in a full pool
// allocates nothing. The buffer still holds the evicted page's bytes.
// Callers must hold bp.mu.
func (bp *BufferPool) admit(id PageID) (*Frame, error) {
	if len(bp.frames) < bp.capacity {
		return &Frame{ID: id, Data: make([]byte, PageSize), pins: 1}, nil
	}
	// Walk from the cold end, skipping frames that are pinned (they stay in
	// the list across pin cycles) — the first unpinned frame is the least
	// recently unpinned one.
	var fr *Frame
	for e := bp.lru.Back(); e != nil; e = e.Prev() {
		if f := e.Value.(*Frame); f.pins == 0 {
			fr = f
			break
		}
	}
	if fr == nil {
		return nil, fmt.Errorf("%w: all %d pages pinned", ErrPoolExhausted, len(bp.frames))
	}
	if fr.dirty {
		if err := bp.file.WritePage(fr.ID, fr.Data); err != nil {
			return nil, err
		}
		bp.stats.Writes++
	}
	delete(bp.frames, fr.ID)
	bp.stats.Evictions++
	if bp.reg != nil {
		bp.reg.PoolEvictions.Add(1)
	}
	// The frame keeps its LRU element: a pinned frame's position in the
	// list is never consulted, and Unpin moves it to the front.
	fr.ID, fr.pins, fr.dirty = id, 1, false
	return fr, nil
}

// Flush writes every dirty cached page back to the file.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for _, fr := range bp.frames {
		if fr.dirty {
			if err := bp.file.WritePage(fr.ID, fr.Data); err != nil {
				return err
			}
			fr.dirty = false
			bp.stats.Writes++
		}
	}
	return nil
}

// PinnedCount reports how many frames are currently pinned (testing aid).
func (bp *BufferPool) PinnedCount() int {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	n := 0
	for _, fr := range bp.frames {
		if fr.pins > 0 {
			n++
		}
	}
	return n
}
