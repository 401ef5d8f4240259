package core

import (
	"testing"

	"surfknn/internal/dem"
)

// TestWarmSessionKNNAllocFree pins the flat-buffer refactor's core promise:
// a warm Session (scratch at its high-water mark, uninstrumented database,
// tracing off) answers MR3 queries without a single heap allocation. Any
// regression — a fresh closure, a map, an append past capacity on the query
// path — shows up here as a non-zero count.
func TestWarmSessionKNNAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := buildDB(t, dem.BH, 16, 60, 2006)
	qs := queryPoints(t, db, 4, 77)
	s := db.NewSession()
	// Warm-up: let every retained buffer (candidate slab, CSR scratch,
	// SDN chain DP, fetch id lists, phase slice) reach its final size.
	for _, q := range qs {
		if _, err := s.MR3Ctx(bg, q, 5, S2, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	qi := 0
	if n := testing.AllocsPerRun(20, func() {
		if _, err := s.MR3Ctx(bg, qs[qi%len(qs)], 5, S2, Options{}); err != nil {
			t.Fatal(err)
		}
		qi++
	}); n != 0 {
		t.Fatalf("warm Session MR3 allocates %.1f times per query, want 0", n)
	}
}

// TestWarmSessionEAAllocFree is the same guard for the exact algorithm: EA
// shares the session's ranker scratch with MR3 but runs its own candidate
// and bound loop, which no other allocation test reaches.
func TestWarmSessionEAAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := buildDB(t, dem.BH, 16, 60, 2006)
	qs := queryPoints(t, db, 4, 77)
	s := db.NewSession()
	for _, q := range qs {
		if _, err := s.EACtx(bg, q, 5); err != nil {
			t.Fatal(err)
		}
	}
	qi := 0
	if n := testing.AllocsPerRun(20, func() {
		if _, err := s.EACtx(bg, qs[qi%len(qs)], 5); err != nil {
			t.Fatal(err)
		}
		qi++
	}); n != 0 {
		t.Fatalf("warm Session EA allocates %.1f times per query, want 0", n)
	}
}

// TestWarmSessionRangeAllocFree is the same guard for the surface range
// query, which shares the ranker and fetch scratch with MR3.
func TestWarmSessionRangeAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	db := buildDB(t, dem.BH, 16, 60, 2006)
	qs := queryPoints(t, db, 4, 77)
	s := db.NewSession()
	radius := 250.0
	for _, q := range qs {
		if _, err := s.SurfaceRangeCtx(bg, q, radius, S2, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	qi := 0
	if n := testing.AllocsPerRun(20, func() {
		if _, err := s.SurfaceRangeCtx(bg, qs[qi%len(qs)], radius, S2, Options{}); err != nil {
			t.Fatal(err)
		}
		qi++
	}); n != 0 {
		t.Fatalf("warm Session SurfaceRange allocates %.1f times per query, want 0", n)
	}
}
