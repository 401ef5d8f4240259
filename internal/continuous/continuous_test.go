package continuous

import (
	"context"
	"math"
	"sync"
	"testing"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/obs"
	"surfknn/internal/workload"
)

// newTestDB builds a fresh instrumented terrain per test — continuous tests
// mutate the object store, so nothing is shared.
func newTestDB(t testing.TB, nObjects int, seed int64) *core.TerrainDB {
	t.Helper()
	// Cell size 10 (extent 160×160) keeps the object field dense enough that
	// step 3 enumerates more than k candidates and the ranker refines real
	// upper bounds — the regime where positive safe radii exist.
	g := dem.Synthesize(dem.EP, 16, 10, seed)
	m := mesh.FromGrid(g)
	db, err := core.BuildTerrainDB(m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := workload.RandomObjects(m, db.Loc, nObjects, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	db.SetObjects(objs)
	db.Instrument(obs.NewRegistry())
	return db
}

// subscribeWithRadius registers a subscription whose safe radius is
// positive, scanning a deterministic grid of interior anchors until one
// yields a usable region.
func subscribeWithRadius(t testing.TB, db *core.TerrainDB, m *Monitor, k int) (uint64, core.Result, core.SafeRegion) {
	t.Helper()
	// Off-lattice anchors: a point on a grid line sits on a face edge, where
	// the clearance — and with it the radius — is zero by construction.
	for _, c := range []geom.Vec2{
		{X: 83, Y: 77}, {X: 65, Y: 91}, {X: 92, Y: 61},
		{X: 51, Y: 52}, {X: 101, Y: 103}, {X: 71, Y: 42},
		{X: 44, Y: 88}, {X: 118, Y: 66}, {X: 57, Y: 112},
	} {
		q, err := db.SurfacePointAt(c)
		if err != nil {
			continue
		}
		id, res, sr, err := m.Subscribe(nil, q, k, core.S1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if sr.Radius > 0 {
			return id, res, sr
		}
		m.Unsubscribe(id)
	}
	t.Fatal("no anchor produced a positive safe radius")
	return 0, core.Result{}, core.SafeRegion{}
}

func sameIDs(a, b []core.Neighbor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Object.ID != b[i].Object.ID {
			return false
		}
	}
	return true
}

// TestMonitorHitMiss pins the subsystem's central contract: a move inside
// the safe region is served from cache with zero Dijkstra relaxations —
// both in the returned Cost and in the process-wide registry — and a move
// outside re-evaluates to exactly what a fresh engine query returns,
// re-anchoring the subscription at the new point.
func TestMonitorHitMiss(t *testing.T) {
	db := newTestDB(t, 100, 11)
	mon, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	id, res, sr := subscribeWithRadius(t, db, mon, 3)
	if res.Epoch != db.CurrentEpoch() {
		t.Fatalf("initial result at epoch %d, store at %d", res.Epoch, db.CurrentEpoch())
	}

	// Hit: inside the region. Zero engine work, verified two ways.
	inside := geom.Vec2{X: sr.Center.X + 0.5*sr.Radius, Y: sr.Center.Y}
	before := db.Registry().DijkstraRelaxations.Value()
	got, gotSR, hit, err := mon.Move(nil, id, inside)
	if err != nil || !hit {
		t.Fatalf("move inside region: hit=%t err=%v", hit, err)
	}
	if d := db.Registry().DijkstraRelaxations.Value() - before; d != 0 {
		t.Fatalf("safe-region hit performed %d Dijkstra relaxations, want 0", d)
	}
	if r := got.Cost.Total().Relaxations; r != 0 {
		t.Fatalf("hit result reports %d relaxations in its Cost, want 0", r)
	}
	if !sameIDs(got.Neighbors, res.Neighbors) || got.Epoch != res.Epoch || gotSR != sr {
		t.Fatalf("hit must replay the cached answer verbatim")
	}
	// The returned slice is caller-owned: corrupting it must not poison the
	// cache.
	got.Neighbors[0].Object.ID = -1
	if again, _, ok := mon.TryMove(id, inside); !ok || again.Neighbors[0].Object.ID == -1 {
		t.Fatalf("cached neighbours aliased a caller-visible slice")
	}

	// Miss: far outside the region. Must match a fresh engine query bit for
	// bit and leave the subscription anchored at the new point.
	outside := geom.Vec2{X: sr.Center.X + 2*sr.Radius + 3.3, Y: sr.Center.Y + 1.7}
	got, gotSR, hit, err = mon.Move(nil, id, outside)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatalf("move %g beyond the guard reported a hit", outside)
	}
	qp, err := db.SurfacePointAt(outside)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := db.NewSession().MR3Ctx(context.Background(), qp, 3, core.S1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Neighbors) != len(fresh.Neighbors) {
		t.Fatalf("re-evaluation returned %d neighbours, fresh query %d", len(got.Neighbors), len(fresh.Neighbors))
	}
	for i := range fresh.Neighbors {
		g, f := got.Neighbors[i], fresh.Neighbors[i]
		if g.Object.ID != f.Object.ID || g.LB != f.LB || g.UB != f.UB {
			t.Fatalf("rank %d: monitored (%d, %g, %g) != fresh (%d, %g, %g)",
				i+1, g.Object.ID, g.LB, g.UB, f.Object.ID, f.LB, f.UB)
		}
	}
	if gotSR.Center != outside {
		t.Fatalf("re-anchor centred at %v, want %v", gotSR.Center, outside)
	}
	if gotSR.Radius > 0 {
		if _, _, ok := mon.TryMove(id, outside); !ok {
			t.Fatal("subscription not servable at its new anchor")
		}
	}

	if hits, misses := mon.Stats().RegionHits.Value(), mon.Stats().RegionMisses.Value(); hits < 2 || misses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want >=2 hits and exactly 1 miss", hits, misses)
	}

	if !mon.Unsubscribe(id) {
		t.Fatal("unsubscribe of a live id reported false")
	}
	if mon.Unsubscribe(id) {
		t.Fatal("double unsubscribe reported true")
	}
	if _, _, _, err := mon.Move(nil, id, inside); err != ErrUnknownSubscription {
		t.Fatalf("move after unsubscribe: %v, want ErrUnknownSubscription", err)
	}
}

// TestEpochInvalidation is the staleness regression: a subscription created
// at epoch e must never serve its cached top-k after an update that could
// change it publishes e+1 — even for a move to the exact anchor point — and
// an update provably outside its guard disc must NOT cost it its cache.
func TestEpochInvalidation(t *testing.T) {
	db := newTestDB(t, 100, 23)
	mon, err := New(db, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	id, res, sr := subscribeWithRadius(t, db, mon, 3)
	anchor := sr.Center
	epoch0 := res.Epoch

	// Upsert an object directly at the anchor: inside the guard disc, so
	// the subscription must invalidate.
	ap, err := db.SurfacePointAt(anchor)
	if err != nil {
		t.Fatal(err)
	}
	db.ObjectStore().Upsert([]workload.Object{{ID: 99999, Point: ap}})
	if db.CurrentEpoch() != epoch0+1 {
		t.Fatalf("upsert moved epoch to %d, want %d", db.CurrentEpoch(), epoch0+1)
	}
	if _, _, ok := mon.TryMove(id, anchor); ok {
		t.Fatal("stale cached top-k served after an in-guard update")
	}
	got, _, hit, err := mon.Move(nil, id, anchor)
	if err != nil {
		t.Fatal(err)
	}
	if hit {
		t.Fatal("invalidated subscription reported a safe-region hit")
	}
	if got.Epoch != epoch0+1 {
		t.Fatalf("re-evaluation at epoch %d, want %d", got.Epoch, epoch0+1)
	}
	if got.Neighbors[0].Object.ID != 99999 {
		t.Fatalf("object upserted onto the anchor is not rank 1: got %d", got.Neighbors[0].Object.ID)
	}

	// Upsert far outside the guard disc: the subscription must be
	// re-stamped to the new epoch and keep serving from cache.
	_, _, sr2, err := mon.Subscribe(nil, ap, 3, core.S1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	far := geom.Vec2{X: 8, Y: 8}
	if d := far.Dist(anchor); d <= sr2.Guard {
		t.Fatalf("test geometry broken: far point %g from anchor, guard %g", d, sr2.Guard)
	}
	fp, err := db.SurfacePointAt(far)
	if err != nil {
		t.Fatal(err)
	}
	reval := mon.Stats().Revalidations.Value()
	db.ObjectStore().Upsert([]workload.Object{{ID: 99998, Point: fp}})
	if mon.Stats().Revalidations.Value() <= reval {
		t.Fatal("out-of-guard update did not re-stamp any subscription")
	}
	if got, _, ok := mon.TryMove(id, anchor); !ok {
		t.Fatal("out-of-guard update destroyed a provably unaffected cache")
	} else if got.Epoch != db.CurrentEpoch() {
		t.Fatalf("re-stamped cache at epoch %d, store at %d", got.Epoch, db.CurrentEpoch())
	}
}

// TestEvictionBound: the subscription table is bounded and evicts least
// recently used entries.
func TestEvictionBound(t *testing.T) {
	db := newTestDB(t, 60, 41)
	mon, err := New(db, Config{MaxSubscriptions: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()

	var ids []uint64
	for i := 0; i < 5; i++ {
		q, err := db.SurfacePointAt(geom.Vec2{X: 41 + 15*float64(i), Y: 77})
		if err != nil {
			t.Fatal(err)
		}
		id, _, _, err := mon.Subscribe(nil, q, 2, core.S1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if mon.Len() != 3 {
		t.Fatalf("table holds %d subscriptions, want 3", mon.Len())
	}
	if mon.Stats().Evictions.Value() != 2 {
		t.Fatalf("evictions = %d, want 2", mon.Stats().Evictions.Value())
	}
	for _, id := range ids[:2] {
		if mon.Unsubscribe(id) {
			t.Fatalf("oldest subscription %d survived eviction", id)
		}
	}
	for _, id := range ids[2:] {
		if !mon.Unsubscribe(id) {
			t.Fatalf("recent subscription %d was evicted", id)
		}
	}
}

// TestStripeCoalescing drives the batcher directly: four overlapping
// re-evaluations arriving within the coalesce window must share one stripe
// (one session checkout) and still each receive the exact fresh answer.
func TestStripeCoalescing(t *testing.T) {
	db := newTestDB(t, 80, 53)
	st := obs.NewContinuousStats()
	b := &batcher{db: db, window: 200 * time.Millisecond, stats: st}

	centers := []geom.Vec2{
		{X: 78, Y: 78}, {X: 82, Y: 78}, {X: 78, Y: 82}, {X: 82, Y: 82},
	}
	hint := geom.MBR{MinX: 70, MinY: 70, MaxX: 90, MaxY: 90}
	outs := make([]evalOut, len(centers))
	var wg sync.WaitGroup
	for i, c := range centers {
		q, err := db.SurfacePointAt(c)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, q mesh.SurfacePoint) {
			defer wg.Done()
			outs[i] = b.eval(evalReq{q: q, k: 2, sched: core.S1, opt: core.Options{}, hint: hint})
		}(i, q)
	}
	wg.Wait()

	if st.StripeQueries.Value() != int64(len(centers)) {
		t.Fatalf("stripe queries = %d, want %d", st.StripeQueries.Value(), len(centers))
	}
	if st.Stripes.Value() != 1 {
		t.Fatalf("overlapping concurrent evaluations ran %d stripes, want 1", st.Stripes.Value())
	}
	if n := st.StripeSize().Count(); n != 1 {
		t.Fatalf("stripe-size histogram recorded %d stripes, want 1", n)
	}
	for i, c := range centers {
		if outs[i].err != nil {
			t.Fatalf("member %d: %v", i, outs[i].err)
		}
		q, _ := db.SurfacePointAt(c)
		fresh, err := db.NewSession().MR3Ctx(context.Background(), q, 2, core.S1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !sameIDs(outs[i].res.Neighbors, fresh.Neighbors) {
			t.Fatalf("member %d: stripe answer diverges from a fresh query", i)
		}
	}
	// Members own their slices: no cross-member aliasing through session
	// scratch.
	if len(outs) > 1 && len(outs[0].res.Neighbors) > 0 && len(outs[1].res.Neighbors) > 0 &&
		&outs[0].res.Neighbors[0] == &outs[1].res.Neighbors[0] {
		t.Fatal("stripe members share a neighbour slice")
	}
	if math.IsNaN(outs[0].region.Radius) {
		t.Fatal("stripe result carries a NaN safe radius")
	}
}
