// Package obs is the obs-atomic fixture: shared metric structs whose
// counter fields must only be written through their atomic methods. The
// package is named obs because the rule keys on the owning package name.
package obs

import "sync/atomic"

// Counter mirrors the real obs.Counter: an atomic counter whose only write
// path is Add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the count.
func (c *Counter) Value() int64 { return c.v.Load() }

// registry mixes sanctioned atomic counters with tempting raw fields.
type registry struct {
	name    string
	raw     int64
	started Counter
	counts  [4]int64
	gauge   atomic.Int64
	phases  map[string]int
}

// span has plain numeric fields but no atomics anywhere: single-goroutine
// trace state, free to write directly.
type span struct {
	name string
	dur  int64
}

func bad(r *registry) {
	r.raw++               // raw counter next to atomics
	r.raw = 7             // same field, plain assignment
	r.started = Counter{} // struct copy clobbers the live atomic
	r.counts[0]++         // array element is still the registry's storage
	(*r).raw += 2         // dereference does not launder the write
	r.gauge = atomic.Int64{}
}

func good(r *registry, sp *span) {
	r.started.Add(1)      // the sanctioned write path
	r.gauge.Store(9)      // likewise for bare atomics
	r.name = "queries"    // label, not a counter
	r.phases["knn2d"] = 1 // map writes go to separate (guarded) storage
	sp.dur = 42           // no atomics in span: plain writes are fine
	sp.name = "iter"
	_ = r.started.Value()
	_ = r.counts
}

func suppressed(r *registry) {
	//lint:ignore obs-atomic fixture exercises the escape hatch
	r.raw = 42
}
