package graph

import "math"

// pqItem is a (vertex, priority) pair in the heap.
type pqItem struct {
	v    int32
	prio float64
}

// minHeap is an indexed 4-ary min-heap of vertices: each queued vertex has
// exactly one item, and pos records which slot holds it, so lowering a
// queued vertex's priority moves its item up in place (decrease) instead of
// queueing a duplicate that a later pop would have to skip.
//
// Items are ordered on priority alone. Both sifts move a hole instead of
// swapping, and ties fall where the sequence of pushes, decreases and pops
// puts them: a rising item stops below a parent of equal priority, a
// sinking one stops above children of equal priority, and the first of
// several equal smallest children is taken. Vertex IDs never enter a
// comparison, so renumbering the vertices leaves the pop sequence as it is.
type minHeap struct {
	items []pqItem
	// pos[v] is v's slot in items while v is queued and -1 once it is
	// popped. A vertex never pushed since reset reads whatever an earlier
	// run left; the Workspace consults pos only for vertices whose label
	// this run has written.
	pos []int32
}

// arity is the heap's branching factor: four children fill one 64-byte
// cache line of pqItems, and the tree is half as deep as a binary one.
const arity = 4

// grow lets the heap index vertices below n.
func (h *minHeap) grow(n int) {
	if n > len(h.pos) {
		h.pos = make([]int32, n)
	}
}

func (h *minHeap) len() int { return len(h.items) }

// push queues v, which must not be queued, at prio.
func (h *minHeap) push(v int32, prio float64) {
	h.items = append(h.items, pqItem{})
	h.up(len(h.items)-1, pqItem{v, prio})
}

// decrease lowers the queued vertex v to prio, no higher than its current
// priority.
func (h *minHeap) decrease(v int32, prio float64) {
	h.up(int(h.pos[v]), pqItem{v, prio})
}

// up moves the hole at slot i toward the root past every parent of higher
// priority and writes x where it stops.
func (h *minHeap) up(i int, x pqItem) {
	for i > 0 {
		parent := (i - 1) / arity
		p := h.items[parent]
		if p.prio <= x.prio {
			break
		}
		h.items[i] = p
		h.pos[p.v] = int32(i)
		i = parent
	}
	h.items[i] = x
	h.pos[x.v] = int32(i)
}

// pop removes and returns the item of lowest priority; the heap must not be
// empty.
//
// A full family of four children is ranked by a tournament on integer keys
// (see key), its three comparisons free of data-dependent branches: the
// left entrant wins every tie, so the winner is the first of the smallest
// children, the one a left-to-right scan takes. A partial last family is
// scanned.
func (h *minHeap) pop() pqItem {
	top := h.items[0]
	h.pos[top.v] = -1
	last := len(h.items) - 1
	x := h.items[last]
	h.items = h.items[:last]
	if last == 0 {
		return top
	}
	i, kx := 0, key(x.prio)
	for {
		c := arity*i + 1
		if c+arity > last {
			break
		}
		f := h.items[c : c+arity : c+arity]
		k0, k1, k2, k3 := key(f[0].prio), key(f[1].prio), key(f[2].prio), key(f[3].prio)
		l01, l23 := less(k1, k0), less(k3, k2)
		k01, k23 := pick(k0, k1, l01), pick(k2, k3, l23)
		l := less(k23, k01)
		if pick(k01, k23, l) >= kx {
			h.items[i] = x
			h.pos[x.v] = int32(i)
			return top
		}
		small := c + int(pick(l01, 2+l23, l))
		h.items[i] = h.items[small]
		h.pos[h.items[i].v] = int32(i)
		i = small
	}
	if c := arity*i + 1; c < last {
		small, prio := i, x.prio
		for ; c < last; c++ {
			if h.items[c].prio < prio {
				small, prio = c, h.items[c].prio
			}
		}
		if small != i {
			h.items[i] = h.items[small]
			h.pos[h.items[i].v] = int32(i)
			i = small
		}
	}
	h.items[i] = x
	h.pos[x.v] = int32(i)
	return top
}

// key maps a priority to an integer of the same order: its bits with the
// sign cleared. That is exact on the priorities a Dijkstra search queues —
// non-negative floats and +Inf, with −0 keyed as +0, the value it compares
// equal to — and wrong for negative ones, which no search queues (a NaN
// never passes Relax's d < old).
func key(p float64) uint64 { return math.Float64bits(p) &^ (1 << 63) }

// less is 1 when key a < key b and 0 otherwise, without a branch: keys are
// below 2^63, so a − b wraps into the top bit exactly when a < b.
func less(a, b uint64) uint64 { return (a - b) >> 63 }

// pick returns a when bit is 0 and b when it is 1, without a branch. The
// compiler keeps a branch for an if that chooses a slot index, since the
// index addresses a load; an arithmetic select is what makes the
// tournament branch-free.
func pick(a, b, bit uint64) uint64 { return a ^ (a^b)&-bit }

func (h *minHeap) reset() { h.items = h.items[:0] }
