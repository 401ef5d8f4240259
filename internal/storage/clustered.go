package storage

import (
	"math"
	"sort"

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

// BuildClustered packs the records into pages allocated through the pool and
// returns the store. The input slice is reordered in place into storage
// order: page i holds recs[i*recsPerPage:(i+1)*recsPerPage]. The sort is not
// stable, so the slice is the only record of that order (core's DMTM level
// networks read it off the slice).
func BuildClustered(pool *BufferPool, recs []ClusterRecord) *Clustered {
	sort.Slice(recs, func(i, j int) bool {
		// Longevity first: records that survive to coarser resolutions are
		// clustered together at the front...
		if recs[i].To != recs[j].To {
			return recs[i].To > recs[j].To
		}
		// ...then spatially by Z-order of the rectangle centre.
		return zOrder(recs[i].MBR.Center()) < zOrder(recs[j].MBR.Center())
	})
	c := &Clustered{pool: pool, n: len(recs)}
	for start := 0; start < len(recs); start += recsPerPage {
		end := start + recsPerPage
		if end > len(recs) {
			end = len(recs)
		}
		meta := pageMeta{
			id:      pool.alloc(),
			mbr:     geom.EmptyMBR(),
			minFrom: math.MaxInt32,
			maxTo:   math.MinInt32,
		}
		for i := start; i < end; i++ {
			meta.mbr = meta.mbr.Union(recs[i].MBR)
			if recs[i].From < meta.minFrom {
				meta.minFrom = recs[i].From
			}
			if recs[i].To > meta.maxTo {
				meta.maxTo = recs[i].To
			}
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
// upper levels hot) and is not counted as an access. BuildClustered orders
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
// measures. The store is immutable after BuildClustered, so concurrent reads
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
