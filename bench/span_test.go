package main

import "testing"

// TestFillSelfSynthetic checks self-time arithmetic on a tree whose children
// overlap, leave gaps and stick out of their parent.
func TestFillSelfSynthetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 70, End: 80},  // after a gap
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // sticks out: clipped at 100
		{ID: 6, Parent: 2, Name: "a1", Start: 12, End: 20},
		{ID: 7, Parent: 3, Name: "b1", Start: 25, End: 35},
		{ID: 8, Parent: 3, Name: "b2", Start: 30, End: 40}, // overlaps b1
		{ID: 9, Parent: 99, Name: "orphan", Start: 0, End: 5},
	}
	fillSelf(spans)
	want := map[string]int64{
		"op":     100 - (40 + 10 + 10), // [10,50] ∪ [70,80] ∪ [90,100]
		"a":      20 - 8,
		"b":      30 - 15, // [25,40]
		"c":      10,
		"d":      30,
		"a1":     8,
		"b1":     10,
		"b2":     10,
		"orphan": 5,
	}
	for _, s := range spans {
		if s.Self != want[s.Name] {
			t.Errorf("span %s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
}

// subtreeSelf sums the self times of the span with the given id and
// everything below it.
func subtreeSelf(spans []span, id int) int64 {
	var sum int64
	for _, s := range spans {
		if s.ID == id {
			sum += s.Self
		}
		if s.Parent == id {
			sum += subtreeSelf(spans, s.ID)
		}
	}
	return sum
}
