package multires

// levelArc is one directed arc of a level network: the neighbour and the
// recorded representative-path distance of the DDM edge it came from.
type levelArc struct {
	to NodeID
	w  float64
}

// levelNet is the DDM network of one collapse time as a CSR over tree
// NodeIDs: node v's arcs are arcs[off[v]:off[v+1]], one per edge record
// incident to v and alive at the time, in DMTM storage order. It is what an
// upper-bound search walks in place of a per-candidate subgraph; nothing in
// it depends on a query, so the ladder's tables are built once and shared by
// every session.
type levelNet struct {
	time int32
	off  []int32
	arcs []levelArc
	// anc[leaf] is the leaf's active ancestor at time (Tree.AncestorAt),
	// the node a surface point's corner embeds at.
	anc []NodeID
}

// build fills the empty ln with the network alive at tm, sized exactly: one
// pass over the records counts each node's arcs, a prefix sum places them, a
// second pass fills — no append growth, and no cursor array (off[v] is node
// v's cursor while filling, which leaves every entry one node early; the
// last loop shifts them back).
//
// The records are walked in t.order, the storage order read off the slice
// storage.SortClustered sorted and never recomputed, emitting u→w then w→u.
// Arc order cannot change a bound (Estimator.UpperBound), but it fixes the
// search's pop sequence, so its work is a function of the storage layout.
//
// build indexes by EdgeRec.U and EdgeRec.W unchecked: a tree from a
// snapshot passes Tree.Validate (which bounds-checks both) before
// core's terrain assembly calls Materialize.
func (ln *levelNet) build(t *Tree, tm int32) {
	n := len(t.Nodes)
	ln.time = tm
	ln.off = make([]int32, n+1)
	off := ln.off
	for _, id := range t.order {
		if e := &t.Edges[id]; e.Birth <= tm && tm < e.Death {
			off[e.U+1]++
			off[e.W+1]++
		}
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	ln.arcs = make([]levelArc, off[n])
	for _, id := range t.order {
		if e := &t.Edges[id]; e.Birth <= tm && tm < e.Death {
			ln.arcs[off[e.U]] = levelArc{to: e.W, w: e.D}
			off[e.U]++
			ln.arcs[off[e.W]] = levelArc{to: e.U, w: e.D}
			off[e.W]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
}

// ancestors fills ln.anc through scratch, one entry per node, in one pass
// in descending NodeID order: a parent's ID is above its children's
// (Tree.Validate), so a node dead at the time reads its parent's entry
// already written, and a live one is its own ancestor.
func (ln *levelNet) ancestors(t *Tree, scratch []NodeID) {
	for v := len(t.Nodes) - 1; v >= 0; v-- {
		nd := &t.Nodes[v]
		switch {
		case nd.Death > ln.time:
			scratch[v] = NodeID(v)
		case nd.Parent == NoNode:
			scratch[v] = t.Root()
		default:
			scratch[v] = scratch[nd.Parent]
		}
	}
	ln.anc = append([]NodeID(nil), scratch[:t.NumLeaves]...)
}

// Materialize derives the tables the upper-bound search reads, once, at
// database assembly (on build and on load alike; nothing here is persisted):
// the storage order of the edge records and one level network with its leaf
// ancestor table per distinct time in times — two ladder rungs that round to
// one collapse time on a small terrain share a table. order must list every
// edge index once, in the order the DMTM clustered store holds the records;
// the tree keeps the slice.
func (t *Tree) Materialize(order []int32, times []int32) {
	if len(order) != len(t.Edges) {
		panic("multires: Materialize: storage order does not list every edge record")
	}
	t.order = order
	t.levels = make([]levelNet, 0, len(times))
	scratch := make([]NodeID, len(t.Nodes))
	for _, tm := range times {
		if t.levelAt(tm) == nil {
			var ln levelNet
			ln.build(t, tm)
			ln.ancestors(t, scratch)
			t.levels = append(t.levels, ln) // within capacity
		}
	}
}

// levelAt returns the materialised level network of time tm, or nil when tm
// is not a ladder time.
func (t *Tree) levelAt(tm int32) *levelNet {
	for i := range t.levels {
		if t.levels[i].time == tm {
			return &t.levels[i]
		}
	}
	return nil
}
