package graph

import (
	"math"
	"math/rand"
	"testing"
)

// lazyHeap is the textbook lazy-deletion binary heap: a vertex is pushed
// once per improvement and its stale copies are skipped by the caller. The
// reference Dijkstra (refDijkstra) runs on it.
type lazyHeap struct {
	items []pqItem
}

func (h *lazyHeap) push(v int32, prio float64) {
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

func (h *lazyHeap) pop() pqItem {
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

// heapOp is one step of a replayed frontier sequence: a Relax of v from
// from at d, or a Pop when v is negative.
type heapOp struct {
	v, from int32
	d       float64
}

// TestHeapOrderSpecification replays random Relax/Pop sequences with
// heavily tied priorities (a handful of distinct values, ±0 among them) on
// a Workspace and holds it to the heap's specification rather than to any
// slot layout:
//   - Min, after every step, and each Pop report the lowest priority still
//     queued;
//   - each Pop returns a queued vertex at its current label and unqueues it,
//     so a vertex lowered while queued pops once, at its final label;
//   - renumbering the vertices by a random permutation gives the same pop
//     sequence, permuted: ties never depend on vertex IDs (DESIGN.md key
//     invariant 9).
func TestHeapOrderSpecification(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 200
	w, wp := NewWorkspace(n), NewWorkspace(n)
	for trial := 0; trial < 300; trial++ {
		distinct := 1 + rng.Intn(8)
		prios := make([]float64, distinct)
		for i := range prios {
			prios[i] = float64(rng.Intn(6))
		}
		prios[0] = math.Copysign(0, -1)
		verts := 1 + rng.Intn(n)
		ops := make([]heapOp, 1+rng.Intn(600))
		for i := range ops {
			ops[i] = heapOp{v: -1}
			if rng.Intn(5) >= 2 {
				ops[i] = heapOp{int32(rng.Intn(verts)), int32(rng.Intn(verts)), prios[rng.Intn(distinct)]}
			}
		}
		perm := rng.Perm(n)
		renum := func(v int32) int32 {
			if v < 0 {
				return v
			}
			return int32(perm[v])
		}

		w.Begin()
		wp.Begin()
		label := map[int32]float64{}
		queued := map[int32]float64{}
		lowest := func() float64 {
			low := Inf
			for _, p := range queued {
				low = math.Min(low, p)
			}
			return low
		}
		for i, op := range ops {
			if op.v < 0 {
				low := lowest()
				v, d := w.Pop()
				pv, pd := wp.Pop()
				if pv != renum(v) || math.Float64bits(pd) != math.Float64bits(d) {
					t.Fatalf("trial %d op %d: popped (%d, %v), renumbered run (%d, %v), want (%d, %v)",
						trial, i, v, d, pv, pd, renum(v), d)
				}
				q, ok := queued[v]
				switch {
				case len(queued) == 0 && v != -1:
					t.Fatalf("trial %d op %d: popped %d from an empty frontier", trial, i, v)
				case len(queued) > 0 && !ok:
					t.Fatalf("trial %d op %d: popped %d, which is not queued", trial, i, v)
				case ok && (math.Float64bits(d) != math.Float64bits(q) || d > low):
					t.Fatalf("trial %d op %d: popped %d at %v, queued at %v, lowest queued %v", trial, i, v, d, q, low)
				}
				delete(queued, v)
			} else {
				old, ok := label[op.v]
				if !ok {
					old = Inf
				}
				want := op.d < old
				if got := w.Relax(op.v, op.from, op.d); got != want {
					t.Fatalf("trial %d op %d: Relax(%d, %v) = %v over label %v", trial, i, op.v, op.d, got, old)
				}
				wp.Relax(renum(op.v), renum(op.from), op.d)
				if want {
					label[op.v], queued[op.v] = op.d, op.d
				}
			}
			if m, low := w.Min(), lowest(); m < low || m > low {
				t.Fatalf("trial %d op %d: Min %v, lowest queued %v", trial, i, m, low)
			}
		}
	}
}

// scanPop is minHeap.pop as it was before the tournament: every family of
// children scanned left to right for the first strictly smaller priority.
// It is the reference TestTournamentPopMatchesScan holds pop to.
func scanPop(h *minHeap) pqItem {
	top := h.items[0]
	h.pos[top.v] = -1
	last := len(h.items) - 1
	x := h.items[last]
	h.items = h.items[:last]
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := arity*i + 1
		if c >= last {
			break
		}
		small, prio := i, x.prio
		for end := min(c+arity, last); c < end; c++ {
			if h.items[c].prio < prio {
				small, prio = c, h.items[c].prio
			}
		}
		if small == i {
			break
		}
		h.items[i] = h.items[small]
		h.pos[h.items[i].v] = int32(i)
		i = small
	}
	h.items[i] = x
	h.pos[x.v] = int32(i)
	return top
}

// TestTournamentPopMatchesScan replays random push/decrease/pop sequences
// on two heaps, one popping with the tournament and one with scanPop, and
// requires the same vertex and priority bits from every pop and the same
// slots after every step. Priorities come from a handful of values — ±0,
// +Inf and a few finite ones — so most families hold ties, and the heap
// sizes put both full and partial last families under the sinking item.
func TestTournamentPopMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const n = 300
	values := []float64{math.Copysign(0, -1), 0, 0.5, 1, 1, 2, 7.25, math.Inf(1)}
	var tour, scan minHeap
	tour.grow(n)
	scan.grow(n)
	prio := make([]float64, n)
	var fullLast, partialLast int
	for trial := 0; trial < 400; trial++ {
		tour.reset()
		scan.reset()
		for v := range tour.pos {
			tour.pos[v], scan.pos[v] = -1, -1
		}
		distinct := 1 + rng.Intn(len(values))
		pushes := 1 + rng.Intn(n)
		for step := 0; step < 3*pushes; step++ {
			if rng.Intn(3) == 0 && tour.len() > 0 {
				// After the pop, last items remain; slot last-1 ends a
				// full family when last ≡ 1 (mod arity).
				if last := tour.len() - 1; last > 1 && last%arity == 1 {
					fullLast++
				} else if last > 1 {
					partialLast++
				}
				a, b := tour.pop(), scanPop(&scan)
				if a.v != b.v || math.Float64bits(a.prio) != math.Float64bits(b.prio) {
					t.Fatalf("trial %d step %d: tournament popped (%d, %v), scan (%d, %v)", trial, step, a.v, a.prio, b.v, b.prio)
				}
			} else {
				v := int32(rng.Intn(pushes))
				d := values[rng.Intn(distinct)]
				switch {
				case tour.pos[v] < 0:
					prio[v] = d
					tour.push(v, d)
					scan.push(v, d)
				case d <= prio[v]:
					prio[v] = d
					tour.decrease(v, d)
					scan.decrease(v, d)
				}
			}
			for s := range tour.items {
				a, b := tour.items[s], scan.items[s]
				if a.v != b.v || math.Float64bits(a.prio) != math.Float64bits(b.prio) {
					t.Fatalf("trial %d step %d: slot %d holds (%d, %v), scan's (%d, %v)", trial, step, s, a.v, a.prio, b.v, b.prio)
				}
			}
		}
	}
	if fullLast == 0 || partialLast == 0 {
		t.Fatalf("pops over a full last family %d, over a partial one %d: both must occur", fullLast, partialLast)
	}
}
