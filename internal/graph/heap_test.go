package graph

import (
	"math"
	"math/rand"
	"testing"
)

// swapHeap is the swap formulation of minHeap's sifts, kept as the
// reference the hole-moving heap must reproduce slot for slot.
type swapHeap struct {
	items []pqItem
}

func (h *swapHeap) push(v int32, prio float64) {
	h.items = append(h.items, pqItem{v, prio})
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent].prio <= h.items[i].prio {
			break
		}
		h.items[parent], h.items[i] = h.items[i], h.items[parent]
		i = parent
	}
}

func (h *swapHeap) pop() pqItem {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.items[l].prio < h.items[small].prio {
			small = l
		}
		if r < last && h.items[r].prio < h.items[small].prio {
			small = r
		}
		if small == i {
			break
		}
		h.items[i], h.items[small] = h.items[small], h.items[i]
		i = small
	}
	return top
}

// TestHeapMatchesSwapHeap replays random push/pop sequences with heavily
// tied priorities (a handful of distinct values, ±0 among them) on both
// heaps and requires the same popped item — vertex and priority bits — and
// the same slot layout after every operation, so the search order of every
// Dijkstra built on the heap is unchanged, ties included.
func TestHeapMatchesSwapHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		var got minHeap
		var want swapHeap
		distinct := 1 + rng.Intn(6)
		prios := make([]float64, distinct)
		for i := range prios {
			prios[i] = float64(rng.Intn(4))
		}
		prios[0] = math.Copysign(0, -1)
		ops := 1 + rng.Intn(400)
		for op := 0; op < ops; op++ {
			if len(want.items) > 0 && rng.Intn(5) < 2 {
				g, w := got.pop(), want.pop()
				if g.v != w.v || math.Float64bits(g.prio) != math.Float64bits(w.prio) {
					t.Fatalf("trial %d op %d: popped %+v, swap heap %+v", trial, op, g, w)
				}
			} else {
				v, p := int32(rng.Intn(1000)), prios[rng.Intn(distinct)]
				got.push(v, p)
				want.push(v, p)
			}
			if got.len() != len(want.items) {
				t.Fatalf("trial %d op %d: %d items, swap heap %d", trial, op, got.len(), len(want.items))
			}
			for i := range want.items {
				g, w := got.items[i], want.items[i]
				if g.v != w.v || math.Float64bits(g.prio) != math.Float64bits(w.prio) {
					t.Fatalf("trial %d op %d: slot %d holds %+v, swap heap %+v", trial, op, i, g, w)
				}
			}
		}
	}
}

// BenchmarkHeap runs one Dijkstra-shaped workload — a heap growing to a few
// thousand items, priorities rising, pops outnumbered by pushes two to one
// until the drain — on the hole-moving heap and on the swap reference.
func BenchmarkHeap(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	prios := make([]float64, 1<<14)
	for i := range prios {
		prios[i] = float64(i/4) + rng.Float64()*200
	}
	b.Run("hole", func(b *testing.B) {
		var h minHeap
		for i := 0; i < b.N; i++ {
			for j, p := range prios {
				h.push(int32(j), p)
				if j%2 == 1 {
					h.pop()
				}
			}
			for h.len() > 0 {
				h.pop()
			}
		}
	})
	b.Run("swap", func(b *testing.B) {
		var h swapHeap
		for i := 0; i < b.N; i++ {
			for j, p := range prios {
				h.push(int32(j), p)
				if j%2 == 1 {
					h.pop()
				}
			}
			for len(h.items) > 0 {
				h.pop()
			}
		}
	})
}
