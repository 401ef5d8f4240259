package graph

// pqItem is a (vertex, priority) pair in the binary heap.
type pqItem struct {
	v    int32
	prio float64
}

// minHeap is a specialised binary min-heap of pqItems. It is a lazy-deletion
// heap: a vertex may appear multiple times; stale entries are skipped when
// popped (cheaper in practice than decrease-key for sparse graphs).
//
// Both sifts move a hole instead of swapping: each level costs one item
// move, and the moving item is written once where it stops. The
// comparisons are those of the swap formulation (strict < picks a child,
// the left one on ties; <= stops a rising item), so items end up in the
// same slots and ties pop in the same order.
type minHeap struct {
	items []pqItem
}

func (h *minHeap) len() int { return len(h.items) }

func (h *minHeap) push(v int32, prio float64) {
	h.items = append(h.items, pqItem{v, prio})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].prio <= prio {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = pqItem{v, prio}
}

func (h *minHeap) pop() pqItem {
	top := h.items[0]
	last := len(h.items) - 1
	x := h.items[last]
	h.items = h.items[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small, prio := i, x.prio
		if l < last && h.items[l].prio < prio {
			small, prio = l, h.items[l].prio
		}
		if r < last && h.items[r].prio < prio {
			small = r
		}
		if small == i {
			break
		}
		h.items[i] = h.items[small]
		i = small
	}
	h.items[i] = x
	return top
}

func (h *minHeap) reset() { h.items = h.items[:0] }
