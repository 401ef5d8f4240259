// Package index provides the 2-D spatial index over object points (the
// paper's Dxy, the projections of the objects onto the (x,y)-plane): an
// R-tree with best-first k-NN search and range queries. Node visits are
// counted as the index's page-access contribution.
package index

import (
	"math"
	"sort"

	"surfknn/internal/geom"
)

// Item is an indexed point with an opaque identifier.
type Item struct {
	P  geom.Vec2
	ID int64
}

const maxEntries = 32 // entries per node (≈ a 4 KiB page of point records)

// node is Bulk's build step: STR packing assembles a conventional pointer
// tree bottom-up, then flatten numbers it breadth-first into the SoA arrays
// below. Nothing outlives Bulk in this form.
type node struct {
	leaf     bool
	mbr      geom.MBR
	children []*node
	items    []Item
}

// RTree is a bulk-packed, immutable R-tree over 2-D points: Bulk (or
// FromFlat, for a snapshot) is the only way to make one, and a changed
// object set gets a new tree (objstore packs one per compaction), so
// concurrent searches are always safe. Queries take a visits counter (nil
// to skip) instead of mutating shared state: each node visited adds one —
// the R-tree's page-access proxy (one node ≈ one page) — charged to the
// per-query account of whoever issued the search.
//
// The tree is four flat arrays indexed by node number plus one packed item
// slab (an index-linked structure-of-arrays layout): node i's MBR is
// mbr[i], and start[i]/count[i] delimit either its child-node index range
// (internal) or its item range in the items slab (leaf). Node 0 is the
// root; nodes are numbered breadth-first, so a node's children occupy
// consecutive indices after its own. The layout is pointer-free, so it
// serialises verbatim into snapshots (see Flat) and is mmap-ready.
type RTree struct {
	leaf  []bool
	mbr   []geom.MBR
	start []int32
	count []int32
	items []Item
}

// visit charges one node visit to the per-query counter, if any. The
// counter is single-goroutine by design (each Session owns one and passes a
// pointer into its searches); sessions later fold the per-query total into
// the process-wide obs.Registry at query end — the tree itself never writes
// shared state, which is what keeps concurrent searches lock-free.
func visit(visits *int64) {
	if visits != nil {
		*visits++
	}
}

// Bulk builds a tree from items using STR (sort-tile-recursive) packing,
// which yields well-clustered leaves for static object sets. An empty item
// set yields the empty tree: one childless leaf.
func Bulk(items []Item) *RTree {
	if len(items) == 0 {
		return flatten(&node{leaf: true, mbr: geom.EmptyMBR()})
	}
	level := strTile(append([]Item(nil), items...),
		func(it Item) geom.Vec2 { return it.P },
		func(run []Item) *node {
			n := &node{leaf: true, mbr: geom.EmptyMBR(), items: run}
			for _, it := range run {
				n.mbr = n.mbr.ExtendPoint(it.P)
			}
			return n
		})
	for len(level) > 1 {
		level = strTile(level,
			func(c *node) geom.Vec2 { return c.mbr.Center() },
			func(run []*node) *node {
				p := &node{mbr: geom.EmptyMBR(), children: run}
				for _, c := range run {
					p.mbr = p.mbr.Union(c.mbr)
				}
				return p
			})
	}
	return flatten(level[0])
}

// strTile packs one level: sort xs by x, cut them into ⌈√n⌉ vertical slices
// (n the number of nodes this level needs), sort each slice by y, and pack
// every run of maxEntries into a node. xs is reordered in place and the
// nodes alias it.
func strTile[T any](xs []T, at func(T) geom.Vec2, pack func(run []T) *node) []*node {
	sort.Slice(xs, func(i, j int) bool { return at(xs[i]).X < at(xs[j]).X })
	nNodes := (len(xs) + maxEntries - 1) / maxEntries
	sliceSize := int(math.Ceil(math.Sqrt(float64(nNodes)))) * maxEntries
	var nodes []*node
	for s := 0; s < len(xs); s += sliceSize {
		slice := xs[s:min(s+sliceSize, len(xs))]
		sort.Slice(slice, func(i, j int) bool { return at(slice[i]).Y < at(slice[j]).Y })
		for o := 0; o < len(slice); o += maxEntries {
			nodes = append(nodes, pack(slice[o:min(o+maxEntries, len(slice))]))
		}
	}
	return nodes
}

// Len returns the number of indexed items.
func (t *RTree) Len() int { return len(t.items) }

// flatten packs the pointer tree under root into the flat SoA arrays,
// assigning node numbers in breadth-first order so every node's children
// occupy a consecutive index range. Per-node child and item order is
// preserved verbatim.
func flatten(root *node) *RTree {
	t := &RTree{}
	queue := []*node{root}
	t.leaf = append(t.leaf, root.leaf)
	t.mbr = append(t.mbr, root.mbr)
	t.start = append(t.start, 0)
	t.count = append(t.count, 0)
	for head := 0; head < len(queue); head++ {
		n := queue[head]
		if n.leaf {
			t.start[head] = int32(len(t.items))
			t.count[head] = int32(len(n.items))
			t.items = append(t.items, n.items...)
			continue
		}
		t.start[head] = int32(len(queue))
		t.count[head] = int32(len(n.children))
		for _, c := range n.children {
			queue = append(queue, c)
			t.leaf = append(t.leaf, c.leaf)
			t.mbr = append(t.mbr, c.mbr)
			t.start = append(t.start, 0)
			t.count = append(t.count, 0)
		}
	}
	return t
}

// pushItem is the single append site the query paths grow their result
// slices through; warm callers pass buffers at their high-water capacity,
// so the append is a plain length bump.
func pushItem(dst []Item, it Item) []Item { return append(dst, it) }

// RangeInto appends all items inside region (inclusive of the boundary) to
// dst, charging node visits to visits (nil to skip counting). Pass a reused
// buffer to avoid allocation — the result may share dst's backing array —
// or nil for a fresh slice.
func (t *RTree) RangeInto(region geom.MBR, visits *int64, dst []Item) []Item {
	return t.rangeScan(0, region, visits, dst)
}

func (t *RTree) rangeScan(ni int32, region geom.MBR, visits *int64, dst []Item) []Item {
	visit(visits)
	lo, n := t.start[ni], t.count[ni]
	if t.leaf[ni] {
		for _, it := range t.items[lo : lo+n] {
			if region.Contains(it.P) {
				dst = pushItem(dst, it)
			}
		}
		return dst
	}
	for c := lo; c < lo+n; c++ {
		if t.mbr[c].Intersects(region) {
			dst = t.rangeScan(c, region, visits, dst)
		}
	}
	return dst
}

// WithinDistInto appends the items within Euclidean distance r of center —
// the circular range query of MR3's step 3 — to dst, charging node visits
// to visits.
func (t *RTree) WithinDistInto(center geom.Vec2, r float64, visits *int64, dst []Item) []Item {
	return t.within(0, center, r, visits, dst)
}

func (t *RTree) within(ni int32, center geom.Vec2, r float64, visits *int64, dst []Item) []Item {
	visit(visits)
	lo, n := t.start[ni], t.count[ni]
	if t.leaf[ni] {
		for _, it := range t.items[lo : lo+n] {
			if it.P.Dist(center) <= r {
				dst = pushItem(dst, it)
			}
		}
		return dst
	}
	for c := lo; c < lo+n; c++ {
		if t.mbr[c].DistToPoint(center) <= r {
			dst = t.within(c, center, r, visits, dst)
		}
	}
	return dst
}

// Validate checks the R-tree invariants Bulk must establish (MBR
// containment, entry counts).
func (t *RTree) Validate() error {
	return t.validateFlat(0, true)
}

func (t *RTree) validateFlat(ni int32, isRoot bool) error {
	lo, n := t.start[ni], t.count[ni]
	if t.leaf[ni] {
		if !isRoot && (n < 1 || n > maxEntries) {
			return errCount(n)
		}
		for _, it := range t.items[lo : lo+n] {
			if !t.mbr[ni].Contains(it.P) {
				return errMBR{}
			}
		}
		return nil
	}
	if !isRoot && (n < 1 || n > maxEntries) {
		return errCount(n)
	}
	for c := lo; c < lo+n; c++ {
		if !t.mbr[ni].ContainsMBR(t.mbr[c]) {
			return errMBR{}
		}
		if err := t.validateFlat(c, false); err != nil {
			return err
		}
	}
	return nil
}

type errCount int32

func (e errCount) Error() string { return "index: node entry count out of bounds" }

type errMBR struct{}

func (errMBR) Error() string { return "index: node MBR does not cover contents" }

// SortByDist orders items canonically: ascending squared planar distance to
// q, item id as the tiebreak. The order is a pure function of the item set —
// independent of tree shape, insertion history, or how the set was gathered —
// which is what makes a scatter-gather coordinator's merged candidate list
// reproduce a single tree's enumeration bit for bit (see internal/shard).
// In-place shell sort: no allocation, so it is safe on the query hot path.
func SortByDist(items []Item, q geom.Vec2) {
	d2 := func(it Item) float64 {
		dx, dy := it.P.X-q.X, it.P.Y-q.Y
		return dx*dx + dy*dy
	}
	less := func(a, b Item) bool {
		da, db := d2(a), d2(b)
		//lint:ignore float-eq canonical order is defined on exact float bits; a tolerance would make it input-order dependent
		if da != db {
			return da < db
		}
		return a.ID < b.ID
	}
	// Ciura gap sequence, ample for candidate sets (tens to thousands).
	for _, gap := range [...]int{701, 301, 132, 57, 23, 10, 4, 1} {
		for i := gap; i < len(items); i++ {
			it := items[i]
			j := i
			for ; j >= gap && less(it, items[j-gap]); j -= gap {
				items[j] = items[j-gap]
			}
			items[j] = it
		}
	}
}
