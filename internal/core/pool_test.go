package core

import (
	"sync"
	"testing"

	"surfknn/internal/dem"
)

// TestPooledSessionMatchesOneShot mirrors TestSessionReuseMatchesOneShot
// for the acquire/release pool: queries through checked-out sessions must
// report bit-identical results and page counts to one-shot queries, and a
// released session must actually be reused by the next acquire.
func TestPooledSessionMatchesOneShot(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 50, 7)
	qs := queryPoints(t, db, 4, 11)

	first := db.AcquireSession()
	db.Release(first)
	if again := db.AcquireSession(); again != first {
		t.Errorf("pool did not reuse the released session")
	} else {
		db.Release(again)
	}

	for i, q := range qs {
		oneShot, err := db.NewSession().MR3Ctx(bg, q, 3, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		s := db.AcquireSession()
		pooled, err := s.MR3Ctx(bg, q, 3, S2, Options{})
		db.Release(s)
		if err != nil {
			t.Fatal(err)
		}
		if oneShot.Metrics().Pages != pooled.Metrics().Pages {
			t.Errorf("query %d: one-shot pages %d != pooled pages %d",
				i, oneShot.Metrics().Pages, pooled.Metrics().Pages)
		}
		if len(oneShot.Neighbors) != len(pooled.Neighbors) {
			t.Fatalf("query %d: result sizes differ", i)
		}
		for j := range oneShot.Neighbors {
			a, b := oneShot.Neighbors[j], pooled.Neighbors[j]
			if a.Object.ID != b.Object.ID || a.LB != b.LB || a.UB != b.UB {
				t.Errorf("query %d: neighbour %d differs: %+v vs %+v", i, j, a, b)
			}
		}
	}
}

// TestPoolReleaseResetsTracing pins that per-request settings do not leak
// across checkouts: a session released with tracing on comes back clean.
func TestPoolReleaseResetsTracing(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 30, 9)
	q := queryPoints(t, db, 1, 13)[0]
	s := db.AcquireSession()
	s.SetTracing(true)
	db.Release(s)
	s2 := db.AcquireSession()
	defer db.Release(s2)
	res, err := s2.MR3Ctx(bg, q, 3, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace != nil {
		t.Errorf("released session kept tracing enabled")
	}
}

// TestPoolConcurrentCheckout hammers acquire/release from many goroutines
// (run under -race by the gate): the pool must hand each goroutine a
// private session and correct answers.
func TestPoolConcurrentCheckout(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 40, 3)
	q := queryPoints(t, db, 1, 5)[0]
	want, err := db.NewSession().MR3Ctx(bg, q, 4, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// one checks a session out, queries and compares. The result aliases the
	// session's buffers, so the session goes back to the pool — where another
	// goroutine's query overwrites them — only after the comparison.
	one := func() bool {
		s := db.AcquireSession()
		defer db.Release(s)
		res, err := s.MR3Ctx(bg, q, 4, S1, Options{})
		if err != nil {
			t.Error(err)
			return false
		}
		for j := range want.Neighbors {
			if res.Neighbors[j].Object.ID != want.Neighbors[j].Object.ID {
				t.Errorf("pooled result %d differs", j)
				return false
			}
		}
		return true
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5 && one(); i++ {
			}
		}()
	}
	wg.Wait()
}
