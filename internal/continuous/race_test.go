package continuous

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/workload"
)

// TestConcurrentMoversAndWriter runs eight movers random-walking their
// subscriptions against one writer churning the object store. Every
// delivered result whose epoch still matches a fresh engine query's epoch
// must be bit-identical to it — IDs, order, and both distance bounds —
// whether it came from the safe-region cache, an epoch re-stamp, or a
// stripe re-evaluation. Run with -race this also shakes out data races
// between the monitor, the batcher and the store's notify path.
func TestConcurrentMoversAndWriter(t *testing.T) {
	db := newTestDB(t, 100, 61)
	mon, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	const (
		movers       = 8
		movesPerGoro = 25
		writes       = 20
	)
	var (
		wg        sync.WaitGroup
		compared  atomic.Int64
		hits      atomic.Int64
		checkerMu sync.Mutex // fresh-query sessions are cheap; serialise for determinism of the epoch read
	)

	// verify re-queries the engine at the delivered result's anchor and, when
	// no write slipped in between (same epoch), demands bit-identity.
	verify := func(res core.Result, sr core.SafeRegion, k int) {
		checkerMu.Lock()
		defer checkerMu.Unlock()
		qp, err := db.SurfacePointAt(sr.Center)
		if err != nil {
			t.Errorf("anchor %v left the surface: %v", sr.Center, err)
			return
		}
		fresh, err := db.NewSession().MR3Ctx(context.Background(), qp, k, core.S1, core.Options{})
		if err != nil {
			t.Errorf("fresh query at %v: %v", sr.Center, err)
			return
		}
		if fresh.Epoch != res.Epoch {
			return // a write raced in between; nothing to compare
		}
		if len(fresh.Neighbors) != len(res.Neighbors) {
			t.Errorf("epoch %d at %v: delivered %d neighbours, fresh %d",
				res.Epoch, sr.Center, len(res.Neighbors), len(fresh.Neighbors))
			return
		}
		for i := range fresh.Neighbors {
			d, f := res.Neighbors[i], fresh.Neighbors[i]
			if d.Object.ID != f.Object.ID || d.LB != f.LB || d.UB != f.UB {
				t.Errorf("epoch %d at %v rank %d: delivered (%d, %x, %x) != fresh (%d, %x, %x)",
					res.Epoch, sr.Center, i+1,
					d.Object.ID, d.LB, d.UB, f.Object.ID, f.LB, f.UB)
				return
			}
		}
		compared.Add(1)
	}

	for mi := 0; mi < movers; mi++ {
		wg.Add(1)
		go func(mi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + mi)))
			base := geom.Vec2{X: 40 + 10*float64(mi) + 0.7, Y: 70 + 5*float64(mi%3) + 0.3}
			q, err := db.SurfacePointAt(base)
			if err != nil {
				t.Errorf("mover %d base %v: %v", mi, base, err)
				return
			}
			id, res, sr, err := mon.Subscribe(nil, q, 3, core.S1, core.Options{})
			if err != nil {
				t.Errorf("mover %d subscribe: %v", mi, err)
				return
			}
			verify(res, sr, 3)
			p := base
			for step := 0; step < movesPerGoro; step++ {
				p.X += (rng.Float64() - 0.5) * 4
				p.Y += (rng.Float64() - 0.5) * 4
				if p.X < 10 || p.X > 150 || p.Y < 10 || p.Y > 150 {
					p = base
				}
				res, sr, hit, err := mon.Move(nil, id, p)
				if err != nil {
					t.Errorf("mover %d move to %v: %v", mi, p, err)
					return
				}
				if hit {
					hits.Add(1)
				}
				verify(res, sr, 3)
			}
			mon.Unsubscribe(id)
		}(mi)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(777))
		store := db.ObjectStore()
		for w := 0; w < writes; w++ {
			p := geom.Vec2{X: 15 + 130*rng.Float64(), Y: 15 + 130*rng.Float64()}
			sp, err := db.SurfacePointAt(p)
			if err != nil {
				continue
			}
			store.Upsert([]workload.Object{{ID: int64(5000 + w%7), Point: sp}})
		}
	}()

	wg.Wait()
	if compared.Load() == 0 {
		t.Fatal("no delivered result was ever compared against a fresh query; the check never ran")
	}
	t.Logf("compared %d results bit-identical (%d safe-region hits)", compared.Load(), hits.Load())
}
