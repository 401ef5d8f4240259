package index

import (
	"fmt"

	"surfknn/internal/geom"
)

// Flat is the tree's SoA form, exposed for persistence: five flat buffers
// that a snapshot can write (and mmap back) verbatim. Node i's children
// (internal) or items (leaf) are Start[i]..Start[i]+Count[i]; node 0 is the
// root.
type Flat struct {
	Leaf  []bool
	MBR   []geom.MBR
	Start []int32
	Count []int32
	Items []Item
}

// Flatten returns the tree's flat buffers. They are the tree's own query
// structures, not copies: callers must treat them as read-only.
func (t *RTree) Flatten() Flat {
	return Flat{Leaf: t.leaf, MBR: t.mbr, Start: t.start, Count: t.count, Items: t.items}
}

// FromFlat adopts flat buffers (retained, not copied) as a tree without any
// repacking, after checking that they have the shape Bulk produces — the
// buffers usually come from a snapshot file, and the searches trust the
// layout blindly. Beyond the array bounds, the breadth-first numbering is
// what is checked: scanning the nodes in index order, the internal nodes'
// child ranges tile nodes 1..n-1 consecutively, each starting after the
// node that owns it. Every node then has exactly one parent, of smaller
// index, so no traversal can revisit a node — a self- or back-pointing
// child range would otherwise recurse (or grow the k-NN heap) without end.
// An empty Flat is the empty tree.
func FromFlat(f Flat) (*RTree, error) {
	n := len(f.Leaf)
	if len(f.MBR) != n || len(f.Start) != n || len(f.Count) != n {
		return nil, fmt.Errorf("index: node arrays differ in length (%d/%d/%d/%d)", n, len(f.MBR), len(f.Start), len(f.Count))
	}
	if n == 0 {
		if len(f.Items) > 0 {
			return nil, fmt.Errorf("index: %d items but no nodes", len(f.Items))
		}
		return Bulk(nil), nil
	}
	next := int64(1) // first node not yet claimed as a child
	for i := int64(0); i < int64(n); i++ {
		start, count := int64(f.Start[i]), int64(f.Count[i])
		if i >= next {
			return nil, fmt.Errorf("index: node %d is no node's child", i)
		}
		if f.Leaf[i] {
			if start < 0 || count < 0 || start+count > int64(len(f.Items)) {
				return nil, fmt.Errorf("index: leaf %d items [%d,%d) outside slab of %d", i, start, start+count, len(f.Items))
			}
			continue
		}
		if start != next || count < 0 || start+count > int64(n) {
			return nil, fmt.Errorf("index: node %d children [%d,%d) break the breadth-first layout (next free node %d of %d)", i, start, start+count, next, n)
		}
		next += count
	}
	return &RTree{leaf: f.Leaf, mbr: f.MBR, start: f.Start, count: f.Count, items: f.Items}, nil
}
