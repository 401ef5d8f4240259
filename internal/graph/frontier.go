package graph

// Frontier is an exported min-priority queue over (vertex, priority) pairs
// for callers that implement custom graph searches (filtered Dijkstra,
// window propagation). It uses lazy deletion: stale entries must be skipped
// by the caller by comparing the popped priority with its distance array.
type Frontier struct {
	h minHeap
}

// NewFrontier returns an empty frontier.
func NewFrontier() *Frontier { return &Frontier{} }

// Len returns the number of queued entries (including stale ones).
func (f *Frontier) Len() int { return f.h.len() }

// Push queues vertex v with the given priority.
func (f *Frontier) Push(v int32, prio float64) { f.h.push(v, prio) }

// Pop removes and returns the entry with the smallest priority.
func (f *Frontier) Pop() (v int32, prio float64) {
	it := f.h.pop()
	return it.v, it.prio
}

// MinPrio returns the smallest queued priority without removing its entry.
// The frontier must not be empty.
func (f *Frontier) MinPrio() float64 { return f.h.items[0].prio }

// Reset empties the frontier for reuse.
func (f *Frontier) Reset() { f.h.reset() }
