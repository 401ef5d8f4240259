package server

import (
	"container/list"
	"sync"

	"surfknn/internal/obs"
)

// resultCache is the LRU result cache. The terrain is immutable and the
// object set is versioned (internal/objstore), so a canonicalized query
// maps to exactly one answer *per epoch*: object-dependent keys carry the
// epoch the answer was computed against (see epochKey), which keeps every
// stored entry valid forever — an object update never purges the cache,
// it just makes entries for superseded epochs unreachable (lookups always
// use the current epoch), and they age out of the LRU like any other cold
// entry. That makes caching safe to apply to the entire serialized
// response body — a hit replays the original bytes, including the
// original cost numbers, marked by the X-Cache header.
//
// Keys are the front's route shape plus the plan's canonical statement —
// every result-affecting parameter in shortest round-trip spelling, and no
// execution-only one (timeout) — prefixed here with the epoch (see
// Execute). Surface-distance keys omit the epoch: distances depend only on
// the terrain.
//
// A single mutex guards the map and the recency list; the critical section
// is a few pointer moves, so contention is negligible next to a query.
type resultCache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
	stats *obs.ServerStats
}

// cacheEntry is one cached response body.
type cacheEntry struct {
	key  string
	body []byte
}

// newResultCache returns a cache holding up to max entries; max <= 0
// disables caching (get always misses, put drops).
func newResultCache(max int, stats *obs.ServerStats) *resultCache {
	return &resultCache{
		max:   max,
		ll:    list.New(),
		items: make(map[string]*list.Element),
		stats: stats,
	}
}

// get returns the cached body for key, promoting the entry to most recently
// used. The returned slice is shared — callers must not modify it.
func (c *resultCache) get(key string) ([]byte, bool) {
	if c.max <= 0 {
		c.stats.CacheMisses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.CacheMisses.Add(1)
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.stats.CacheHits.Add(1)
	return el.Value.(*cacheEntry).body, true
}

// put stores a response body, evicting the least recently used entry when
// full. Storing an existing key refreshes its body and recency (the bodies
// are identical anyway — two computations of one canonical query).
func (c *resultCache) put(key string, body []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, body: body})
	if c.ll.Len() > c.max {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
		c.stats.CacheEvictions.Add(1)
	}
}

// len returns the current entry count (tests and healthz).
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
