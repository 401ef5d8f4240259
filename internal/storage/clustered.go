package storage

import (
	"encoding/binary"
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

const clusterRecSize = 8 + 4*8 + 4 + 4 // 48 bytes
const recsPerPage = (PageSize - hdrSize) / clusterRecSize

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

// BuildClustered packs the records into pages through the pool and returns
// the store. The input slice is reordered in place.
func BuildClustered(pool *BufferPool, recs []ClusterRecord) (*Clustered, error) {
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
		fr, err := pool.Alloc()
		if err != nil {
			return nil, err
		}
		meta := pageMeta{
			id:      fr.ID,
			mbr:     geom.EmptyMBR(),
			minFrom: math.MaxInt32,
			maxTo:   math.MinInt32,
		}
		setCount(fr.Data, end-start)
		for i := start; i < end; i++ {
			writeClusterRec(fr.Data[hdrSize+(i-start)*clusterRecSize:], recs[i])
			meta.mbr = meta.mbr.Union(recs[i].MBR)
			if recs[i].From < meta.minFrom {
				meta.minFrom = recs[i].From
			}
			if recs[i].To > meta.maxTo {
				meta.maxTo = recs[i].To
			}
		}
		pool.Unpin(fr, true)
		c.dir = append(c.dir, meta)
	}
	return c, nil
}

// Len returns the number of stored records.
func (c *Clustered) Len() int { return c.n }

// NumPages returns the number of data pages.
func (c *Clustered) NumPages() int { return len(c.dir) }

// Batch is the decoded result of one FetchBatch: the matching records' IDs
// and rectangles as parallel slices, in page order then slot order. Callers
// keep one per query session so the slices are reused fetch after fetch.
type Batch struct {
	IDs                    []uint64
	MinX, MinY, MaxX, MaxY []float64
}

// room resizes every column to length k+n, keeping the first k records;
// the entries past k are stale until written.
func (b *Batch) room(k, n int) {
	b.IDs = growTo(b.IDs, k+n)
	b.MinX = growTo(b.MinX, k+n)
	b.MinY = growTo(b.MinY, k+n)
	b.MaxX = growTo(b.MaxX, k+n)
	b.MaxY = growTo(b.MaxY, k+n)
}

func (b *Batch) truncate(k int) {
	b.IDs, b.MinX, b.MinY, b.MaxX, b.MaxY = b.IDs[:k], b.MinX[:k], b.MinY[:k], b.MaxX[:k], b.MaxY[:k]
}

// growTo returns s at length n, keeping its contents, allocating only when
// the capacity is short.
func growTo[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	ns := make([]T, n, n+n/2)
	copy(ns, s)
	return ns
}

// nextPage returns the index of the first directory entry at or after i
// whose page may hold a record valid at level (From <= level < To) inside
// region, or len(c.dir) when none is left. It is the one directory walk
// every paged read shares, so they all touch the same pages in the same
// order. The directory itself is assumed cached (as a DBMS keeps index
// upper levels hot) and is not counted as an access.
func (c *Clustered) nextPage(i int, region geom.MBR, level int32) int {
	for ; i < len(c.dir); i++ {
		meta := &c.dir[i]
		if meta.minFrom <= level && level < meta.maxTo && meta.mbr.Intersects(region) {
			break
		}
	}
	return i
}

// FetchBatch reads every record valid at level (From <= level < To) whose
// MBR intersects region into dst (truncated first), going through the
// buffer pool page by page: each data page touched counts as one access,
// charged to acct when non-nil — the per-query account of the session
// issuing the fetch. A record's validity interval is tested on its two
// int32s before its rectangle is decoded. The store is immutable after
// BuildClustered, so concurrent fetches from different sessions are safe.
func (c *Clustered) FetchBatch(region geom.MBR, level int32, acct *IOAccount, dst *Batch) error {
	k := 0 // records kept so far
	for i := c.nextPage(0, region, level); i < len(c.dir); i = c.nextPage(i+1, region, level) {
		fr, err := c.pool.Get(c.dir[i].id, acct)
		if err != nil {
			dst.truncate(k)
			return err
		}
		n := count(fr.Data)
		dst.room(k, n)
		for p := fr.Data[hdrSize : hdrSize+n*clusterRecSize]; len(p) >= clusterRecSize; p = p[clusterRecSize:] {
			if from := int32(binary.LittleEndian.Uint32(p[40:])); from > level {
				continue
			}
			if to := int32(binary.LittleEndian.Uint32(p[44:])); level >= to {
				continue
			}
			minX := math.Float64frombits(binary.LittleEndian.Uint64(p[8:]))
			minY := math.Float64frombits(binary.LittleEndian.Uint64(p[16:]))
			maxX := math.Float64frombits(binary.LittleEndian.Uint64(p[24:]))
			maxY := math.Float64frombits(binary.LittleEndian.Uint64(p[32:]))
			// MBR.Intersects(region); region is not empty, or nextPage
			// would not have offered this page.
			if !(minX <= maxX && minY <= maxY &&
				minX <= region.MaxX && region.MinX <= maxX && minY <= region.MaxY && region.MinY <= maxY) {
				continue
			}
			dst.IDs[k] = binary.LittleEndian.Uint64(p[0:])
			dst.MinX[k], dst.MinY[k], dst.MaxX[k], dst.MaxY[k] = minX, minY, maxX, maxY
			k++
		}
		c.pool.Unpin(fr, false)
	}
	dst.truncate(k)
	return nil
}

// Touch pins and unpins the pages FetchBatch(region, level) reads, in the
// same order and with the same accounting, without decoding a record — for
// callers that owe the I/O the paper measures but take the data from an
// in-memory structure.
func (c *Clustered) Touch(region geom.MBR, level int32, acct *IOAccount) error {
	for i := c.nextPage(0, region, level); i < len(c.dir); i = c.nextPage(i+1, region, level) {
		fr, err := c.pool.Get(c.dir[i].id, acct)
		if err != nil {
			return err
		}
		c.pool.Unpin(fr, false)
	}
	return nil
}

func writeClusterRec(p []byte, r ClusterRecord) {
	binary.LittleEndian.PutUint64(p[0:], r.ID)
	binary.LittleEndian.PutUint64(p[8:], math.Float64bits(r.MBR.MinX))
	binary.LittleEndian.PutUint64(p[16:], math.Float64bits(r.MBR.MinY))
	binary.LittleEndian.PutUint64(p[24:], math.Float64bits(r.MBR.MaxX))
	binary.LittleEndian.PutUint64(p[32:], math.Float64bits(r.MBR.MaxY))
	binary.LittleEndian.PutUint32(p[40:], uint32(r.From))
	binary.LittleEndian.PutUint32(p[44:], uint32(r.To))
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
