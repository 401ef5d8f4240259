package storage

import (
	"cmp"
	"math"
	"slices"

	"surfknn/internal/geom"
)

// ClusterRecord is one unit of terrain data placed on disk: an opaque ID
// (interpreted by the owning structure — a DDM edge index, an SDN segment
// key), its (x,y) bounding rectangle, and its validity interval [From, To)
// in the owner's resolution dimension (collapse time for DMTM, resolution
// level for MSDN).
type ClusterRecord struct {
	ID       uint64
	MBR      geom.MBR
	From, To int32
}

// A page holds as many records as a 4 KiB page with an 8-byte header would
// at 48 bytes a record (ID, four coordinates, two bounds): 85.
const (
	pageHeader     = 8
	clusterRecSize = 8 + 4*8 + 4 + 4
	recsPerPage    = (PageSize - pageHeader) / clusterRecSize
)

// pageMeta is the in-memory directory entry for one data page.
type pageMeta struct {
	id      PageID
	mbr     geom.MBR
	minFrom int32
	maxTo   int32
}

// Clustered is a read-only spatially clustered record store. Records are
// packed into pages ordered by (longevity, Z-order), so that coarse
// resolutions touch few pages and fetches of a small region touch pages
// whose directory rectangles intersect it — the access pattern the paper
// obtains from its Oracle clustering index.
type Clustered struct {
	pool *BufferPool
	dir  []pageMeta
	n    int
}

// sortKey is one record's storage-order key and its index before the sort.
type sortKey struct {
	z   uint64
	to  int32
	idx int32
}

// SortClustered reorders recs in place into storage order: longevity first
// (records that survive to coarser resolutions are clustered at the
// front, To descending), then spatially by the Z-order of the rectangle
// centre. The sort is not stable, so the slice is the only record of that
// order (core's DMTM level networks read it off the slice).
//
// Each key is computed once and the sort runs over 16-byte (key, index)
// pairs; the records then move once, in place. The order of tied records
// is whatever the unstable sort's swap sequence leaves, so it must not
// change: slices.SortFunc runs the pdqsort template sort.Slice runs, and
// its comparison outcomes are those of a sort.Slice comparator on the
// records, so the permutation is that sort's, ties included
// (TestKeyedSortMatchesComparator). SortClustered touches no pool: stores
// can be sorted concurrently and packed afterwards in a fixed order.
func SortClustered(recs []ClusterRecord) {
	keys := make([]sortKey, len(recs))
	for i := range recs {
		keys[i] = sortKey{z: zOrder(recs[i].MBR.Center()), to: recs[i].To, idx: int32(i)}
	}
	slices.SortFunc(keys, func(a, b sortKey) int {
		if a.to != b.to {
			if a.to > b.to {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.z, b.z)
	})
	// Apply the permutation in place, one cycle at a time: position j takes
	// the record from position keys[j].idx, and a visited key is marked -1.
	for i := range keys {
		if keys[i].idx < 0 {
			continue
		}
		first := recs[i]
		j := i
		for {
			k := int(keys[j].idx)
			keys[j].idx = -1
			if k == i {
				recs[j] = first
				break
			}
			recs[j] = recs[k]
			j = k
		}
	}
}

// PackClustered packs records already in storage order (SortClustered)
// into pages allocated through the pool, page i holding
// recs[i*recsPerPage:(i+1)*recsPerPage], and returns the store. Page IDs
// are allocated in call order, so stores packed in the same order onto the
// same pool get the same pages.
func PackClustered(pool *BufferPool, recs []ClusterRecord) *Clustered {
	c := &Clustered{pool: pool, n: len(recs), dir: make([]pageMeta, 0, (len(recs)+recsPerPage-1)/recsPerPage)}
	for start := 0; start < len(recs); start += recsPerPage {
		end := min(start+recsPerPage, len(recs))
		meta := pageMeta{
			id:      pool.alloc(),
			mbr:     geom.EmptyMBR(),
			minFrom: math.MaxInt32,
			maxTo:   math.MinInt32,
		}
		for i := start; i < end; i++ {
			meta.mbr = meta.mbr.Union(recs[i].MBR)
			meta.minFrom = min(meta.minFrom, recs[i].From)
			meta.maxTo = max(meta.maxTo, recs[i].To)
		}
		c.dir = append(c.dir, meta)
	}
	return c
}

// Len returns the number of stored records.
func (c *Clustered) Len() int { return c.n }

// NumPages returns the number of data pages.
func (c *Clustered) NumPages() int { return len(c.dir) }

// nextPage returns the index of the first directory entry at or after i
// whose page may hold a record valid at level (From <= level < To) inside
// region, or len(c.dir) when none is left. It is the one directory walk
// every paged read shares, so they all touch the same pages in the same
// order. The directory itself is assumed cached (as a DBMS keeps index
// upper levels hot) and is not counted as an access. SortClustered orders
// records longest-lived first, so maxTo never increases along the
// directory: the first entry whose records all expire by level ends the
// walk.
func (c *Clustered) nextPage(i int, region geom.MBR, level int32) int {
	for ; i < len(c.dir); i++ {
		meta := &c.dir[i]
		if level >= meta.maxTo {
			return len(c.dir)
		}
		if meta.minFrom <= level && meta.mbr.Intersects(region) {
			break
		}
	}
	return i
}

// Touch accesses, in directory order, every page that may hold a record
// valid at level (From <= level < To) inside region, each access charged to
// acct when non-nil — the per-query account of the session issuing the
// read. The records themselves live in in-memory structures the bounds read
// directly (the DMTM's in the tree's level networks and the pathnet, the
// SDN's in the MSDN tables); the paged read accounts the I/O the paper
// measures. The store is immutable after PackClustered, so concurrent reads
// from different sessions are safe. The whole run of pages is accessed under
// one hold of the pool's lock and published to its registry once.
func (c *Clustered) Touch(region geom.MBR, level int32, acct *IOAccount) {
	bp := c.pool
	bp.mu.Lock()
	defer bp.mu.Unlock()
	s0 := bp.stats
	for i := c.nextPage(0, region, level); i < len(c.dir); i = c.nextPage(i+1, region, level) {
		bp.access(c.dir[i].id, acct)
	}
	bp.publish(s0)
}

// zOrder interleaves the bits of the quantised coordinates, giving the
// Morton order used for spatial clustering.
func zOrder(p geom.Vec2) uint64 {
	// Quantise into 2^21 cells per axis over a fixed large envelope; the
	// absolute scale only matters for relative ordering.
	const scale = 1 << 20
	x := uint32(int64(p.X/8) + scale)
	y := uint32(int64(p.Y/8) + scale)
	return interleave(x&0x1FFFFF) | interleave(y&0x1FFFFF)<<1
}

func interleave(v uint32) uint64 {
	x := uint64(v)
	x = (x | x<<16) & 0x0000FFFF0000FFFF
	x = (x | x<<8) & 0x00FF00FF00FF00FF
	x = (x | x<<4) & 0x0F0F0F0F0F0F0F0F
	x = (x | x<<2) & 0x3333333333333333
	x = (x | x<<1) & 0x5555555555555555
	return x
}
