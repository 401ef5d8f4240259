// Benchmarks mapping to the paper's evaluation (§5): one Benchmark per
// figure (Fig7–Fig11) at reduced scale, micro-benchmarks for the individual
// substrates, and ablation benchmarks for the design choices called out in
// DESIGN.md (integrated I/O regions, dummy lower bounds, crossing-line
// subdivision). The full-scale figure regeneration lives in cmd/skbench;
// these targets exist so `go test -bench=.` exercises every experiment code
// path quickly and reports machine-local cost numbers.
package surfknn

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"surfknn/internal/continuous"
	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geodesic"
	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/index"
	"surfknn/internal/mesh"
	"surfknn/internal/multires"
	"surfknn/internal/pathnet"
	"surfknn/internal/sdn"
	"surfknn/internal/server"
	"surfknn/internal/simplify"
	"surfknn/internal/workload"
)

// fixture is the shared benchmark terrain: BH preset, 33×33 grid, ~2.6 km².
type fixture struct {
	m    *mesh.Mesh
	db   *core.TerrainDB
	q    mesh.SurfacePoint
	a, b mesh.SurfacePoint
}

var (
	fxOnce sync.Once
	fx     fixture
)

func getFixture(tb testing.TB) *fixture {
	tb.Helper()
	fxOnce.Do(func() {
		g := dem.Synthesize(dem.BH, 32, 50, 2006)
		fx.m = mesh.FromGrid(g)
		db, err := core.BuildTerrainDB(fx.m, core.Config{})
		if err != nil {
			panic(err)
		}
		objs, err := workload.RandomObjects(fx.m, db.Loc, 80, 3)
		if err != nil {
			panic(err)
		}
		db.SetObjects(objs)
		fx.db = db
		ext := fx.m.Extent()
		fx.q, _ = db.SurfacePointAt(ext.Center())
		fx.a, _ = db.SurfacePointAt(geom.Vec2{X: ext.MinX + 100, Y: ext.MinY + 120})
		fx.b, _ = db.SurfacePointAt(geom.Vec2{X: ext.MaxX - 90, Y: ext.MaxY - 110})
	})
	return &fx
}

// --- Figure 7: CH vs EA single-pair distance ---

func BenchmarkFig7ChenHanExact(b *testing.B) {
	f := getFixture(b)
	solver := geodesic.NewSolver(f.m)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solver.Distance(f.a, f.b)
	}
}

func BenchmarkFig7EAPathnet(b *testing.B) {
	f := getFixture(b)
	pn := pathnet.Build(f.m, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pn.Distance(f.a, f.b)
	}
}

// --- Figure 8: one distance-range estimation (ub at 50% + lb at 50%) ---

func BenchmarkFig8UpperBound(b *testing.B) {
	f := getFixture(b)
	tm := f.db.Tree.TimeForResolution(0.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.db.Tree.UpperBound(f.m, f.a, f.b, tm, multires.IncludeAll)
	}
}

func BenchmarkFig8LowerBound(b *testing.B) {
	f := getFixture(b)
	region := f.m.Extent()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.db.MSDN.LowerBound(f.a.Pos, f.b.Pos, region, 0.5)
	}
}

// BenchmarkLowerBoundChain measures one MSDN lower bound over a warm Scratch
// at 25/50/100 % resolution (all on the ladder, so the chain reads the
// shared level tables): over the whole terrain, as bench/probes.go asks for
// it, and clipped to the pair's search ellipse, as the ranking loop does
// once an upper bound exists. pairs/op is the number of layer transitions
// the kernel evaluated in full per bound — against the all-pairs product it
// is the prune ratio as a number.
func BenchmarkLowerBoundChain(b *testing.B) {
	f := getFixture(b)
	// Terrain centre to a corner: half a diagonal, so the ellipse MBR (upper
	// bound 15 % above the Euclidean distance) clips about half the terrain.
	a, o := f.q.Pos, f.b.Pos
	regions := []struct {
		name string
		mbr  geom.MBR
	}{
		{"whole", f.db.Extent},
		{"ellipse", geom.NewEllipse(a.XY(), o.XY(), 1.15*a.Dist(o)).MBR()},
	}
	for _, pct := range []int{25, 50, 100} {
		res := float64(pct) / 100
		for _, r := range regions {
			b.Run(fmt.Sprintf("%d/%s", pct, r.name), func(b *testing.B) {
				var sc sdn.Scratch
				f.db.MSDN.LowerBoundScratch(&sc, a, o, r.mbr, res, math.Inf(1)) // warm the arena
				before := sc.Pairs()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f.db.MSDN.LowerBoundScratch(&sc, a, o, r.mbr, res, math.Inf(1))
				}
				b.ReportMetric(float64(sc.Pairs()-before)/float64(b.N), "pairs/op")
			})
		}
	}
	// The dummy bound's decision at S2's two ladder jumps, around the previous
	// level's path: settled by the straight-line chain alone (a threshold
	// nothing exceeds), and falling through to the wide one (a threshold
	// everything exceeds).
	region := regions[1].mbr
	for _, tr := range [][2]float64{{0.25, 0.5}, {0.5, 1}} {
		var sc sdn.Scratch
		ms := f.db.MSDN
		prev := append([]sdn.Segment(nil), ms.LowerBoundScratch(&sc, a, o, region, tr[0], math.Inf(1)).Path...)
		for _, c := range []struct {
			name      string
			threshold float64
		}{{"line", math.Inf(1)}, {"wide", 0}} {
			b.Run(fmt.Sprintf("decide/%d/%s", int(100*tr[1]), c.name), func(b *testing.B) {
				ms.EnvelopeExceeds(&sc, a, o, region, tr[1], prev, 2*ms.Spacing, 0, c.threshold) // warm the arena
				before := sc.Pairs()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ms.EnvelopeExceeds(&sc, a, o, region, tr[1], prev, 2*ms.Spacing, 0, c.threshold)
				}
				b.ReportMetric(float64(sc.Pairs()-before)/float64(b.N), "pairs/op")
			})
		}
	}
}

// --- Figure 9: integrated I/O regions on/off ---

func BenchmarkFig9IntegrationOn(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.db.NewSession().MR3Ctx(context.Background(), f.q, 10, core.S2, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9IntegrationOff(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.db.NewSession().MR3Ctx(context.Background(), f.q, 10, core.S2, core.Options{DisableIOIntegration: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 10: MR3 (three schedules) vs EA, k = 10 ---

func benchMR3(b *testing.B, sched core.Schedule, k int) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.db.NewSession().MR3Ctx(context.Background(), f.q, k, sched, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10MR3S1(b *testing.B) { benchMR3(b, core.S1, 10) }
func BenchmarkFig10MR3S2(b *testing.B) { benchMR3(b, core.S2, 10) }
func BenchmarkFig10MR3S3(b *testing.B) { benchMR3(b, core.S3, 10) }

func BenchmarkFig10EA(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.db.NewSession().EACtx(context.Background(), f.q, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 11: effect of object density (sparse vs dense, k = 5) ---

func benchDensity(b *testing.B, n int) {
	f := getFixture(b)
	objs, err := workload.RandomObjects(f.m, f.db.Loc, n, 17)
	if err != nil {
		b.Fatal(err)
	}
	f.db.SetObjects(objs)
	defer func() {
		objs, _ := workload.RandomObjects(f.m, f.db.Loc, 80, 3)
		f.db.SetObjects(objs)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.db.NewSession().MR3Ctx(context.Background(), f.q, 5, core.S2, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Sparse20(b *testing.B) { benchDensity(b, 20) }
func BenchmarkFig11Dense200(b *testing.B) { benchDensity(b, 200) }

// --- Ablations ---

func BenchmarkAblationDummyLBOn(b *testing.B) { benchMR3(b, core.S1, 10) }
func BenchmarkAblationDummyLBOff(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.db.NewSession().MR3Ctx(context.Background(), f.q, 10, core.S1, core.Options{DisableDummyLB: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSubdiv1(b *testing.B) { benchSubdiv(b, 1) }
func BenchmarkAblationSubdiv4(b *testing.B) { benchSubdiv(b, 4) }

func benchSubdiv(b *testing.B, subdiv int) {
	f := getFixture(b)
	ms := sdn.BuildMSDNSubdiv(f.m, 0, subdiv)
	ms.Materialize([]float64{1.0})
	region := f.m.Extent()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.LowerBound(f.a.Pos, f.b.Pos, region, 1.0)
	}
}

// --- Concurrency: sequential vs parallel QPS on one shared TerrainDB ---

// benchQueryPoints spreads deterministic query points over the terrain so
// the sequential and parallel benchmarks perform identical per-op work.
func benchQueryPoints(b *testing.B, f *fixture, n int) []mesh.SurfacePoint {
	b.Helper()
	ext := f.m.Extent()
	rng := rand.New(rand.NewSource(41))
	qs := make([]mesh.SurfacePoint, n)
	for i := range qs {
		p := geom.Vec2{
			X: ext.MinX + (0.1+0.8*rng.Float64())*ext.Width(),
			Y: ext.MinY + (0.1+0.8*rng.Float64())*ext.Height(),
		}
		q, err := f.db.SurfacePointAt(p)
		if err != nil {
			b.Fatal(err)
		}
		qs[i] = q
	}
	return qs
}

// BenchmarkSequentialKNN is the single-session baseline for
// BenchmarkParallelKNN: same queries, one goroutine.
func BenchmarkSequentialKNN(b *testing.B) {
	f := getFixture(b)
	qs := benchQueryPoints(b, f, 16)
	s := f.db.NewSession()
	// Warm the session scratch to its high-water mark so the reported
	// allocs/op reflect the steady state (0) rather than cold growth
	// amortised over b.N.
	for _, q := range qs {
		if _, err := s.MR3Ctx(context.Background(), q, 5, core.S2, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MR3Ctx(context.Background(), qs[i%len(qs)], 5, core.S2, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialKNNObs is BenchmarkSequentialKNN with a registry
// installed. Comparing the two (benchstat, or eyeballing ns/op) is the
// guard that instrumentation overhead stays within noise: the tracked
// counters are a handful of atomic adds per query. It uses a private
// fixture so the registry never leaks into the uninstrumented baseline.
func BenchmarkSequentialKNNObs(b *testing.B) {
	f := getObsFixture(b)
	qs := benchQueryPoints(b, f, 16)
	s := f.db.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.MR3Ctx(context.Background(), qs[i%len(qs)], 5, core.S2, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

var (
	obsFxOnce sync.Once
	obsFx     fixture
)

// TestObsOverheadGuard pins the cost of the observability hooks on the
// BenchmarkSequentialKNN workload: a fully instrumented database (registry
// installed) must stay within 5% of the plain one. Since the instrumented
// side strictly includes the disabled-path work (the nil-registry checks),
// this bounds the disabled-instrumentation overhead by the same margin.
// The two sides are interleaved round-robin and best-of-N compared, so
// machine noise hits both equally; the true per-query delta is a handful
// of atomic adds.
func TestObsOverheadGuard(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive guard")
	}
	plain, inst := getFixture(t), getObsFixture(t)
	run := func(s *core.Session, f *fixture) {
		if _, err := s.MR3Ctx(context.Background(), f.q, 5, core.S2, core.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// A round is as many queries as fill 200 ms on the plain side, counted
	// once and used for every round on both sides: a shorter sample lets a
	// single scheduler hiccup on a loaded machine read as several percent,
	// and a fixed count shrinks the sample whenever the query gets faster.
	queries := 0
	calib := plain.db.NewSession()
	run(calib, plain) // warm the pool
	for start := time.Now(); time.Since(start) < 200*time.Millisecond; queries++ {
		run(calib, plain)
	}
	measure := func(f *fixture) time.Duration {
		s := f.db.NewSession()
		run(s, f) // warm the pool
		start := time.Now()
		for i := 0; i < queries; i++ {
			run(s, f)
		}
		return time.Since(start)
	}
	best := func(cur, d time.Duration) time.Duration {
		if cur == 0 || d < cur {
			return d
		}
		return cur
	}
	// Noise only ever adds time, so each side's best round converges on its
	// true cost from above. Five rounds settle it on a quiet machine; when
	// the rest of `go test ./...` is competing for the cores and one side
	// has not had a quiet round yet, up to ten more are taken before the
	// budget is called exceeded. A real overhead stays above it however
	// many rounds run.
	var bestPlain, bestInst time.Duration
	ratio := 0.0
	for round := 0; round < 15 && (round < 5 || ratio > 1.05); round++ {
		bestPlain = best(bestPlain, measure(plain))
		bestInst = best(bestInst, measure(inst))
		ratio = float64(bestInst) / float64(bestPlain)
	}
	t.Logf("%d queries a round: plain %v, instrumented %v, overhead %+.2f%%", queries, bestPlain, bestInst, 100*(ratio-1))
	if ratio > 1.05 {
		t.Errorf("instrumentation overhead %.2f%% exceeds the 5%% budget (plain %v, instrumented %v)",
			100*(ratio-1), bestPlain, bestInst)
	}
}

// getObsFixture builds the same terrain as getFixture but with an obs
// registry installed, so instrumented and plain benchmarks never share a
// database.
func getObsFixture(tb testing.TB) *fixture {
	tb.Helper()
	obsFxOnce.Do(func() {
		g := dem.Synthesize(dem.BH, 32, 50, 2006)
		obsFx.m = mesh.FromGrid(g)
		db, err := core.BuildTerrainDB(obsFx.m, core.Config{})
		if err != nil {
			panic(err)
		}
		objs, err := workload.RandomObjects(obsFx.m, db.Loc, 80, 3)
		if err != nil {
			panic(err)
		}
		db.SetObjects(objs)
		db.Instrument(NewRegistry())
		obsFx.db = db
		ext := obsFx.m.Extent()
		obsFx.q, _ = db.SurfacePointAt(ext.Center())
	})
	return &obsFx
}

// BenchmarkParallelKNN runs the same query mix from GOMAXPROCS goroutines,
// one Session each, against the one shared TerrainDB. Throughput should
// scale near-linearly relative to BenchmarkSequentialKNN because sessions
// share no mutable state — the only serialisation point is the buffer-pool
// mutex.
func BenchmarkParallelKNN(b *testing.B) {
	f := getFixture(b)
	qs := benchQueryPoints(b, f, 16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		s := f.db.NewSession()
		i := 0
		for pb.Next() {
			if _, err := s.MR3Ctx(context.Background(), qs[i%len(qs)], 5, core.S2, core.Options{}); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// --- Substrate micro-benchmarks ---

func BenchmarkSimplifyQEM(b *testing.B) {
	g := dem.Synthesize(dem.BH, 16, 50, 5)
	for i := 0; i < b.N; i++ {
		m := mesh.FromGrid(g)
		if _, err := simplify.Simplify(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDijkstraMesh(b *testing.B) {
	f := getFixture(b)
	g := graph.New(f.m.NumVerts())
	for _, e := range f.m.Edges() {
		g.AddEdge(int(e.A), int(e.B), f.m.EdgeLength(e))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.Dijkstra(g, i%f.m.NumVerts())
	}
}

// BenchmarkDijkstraCSR is BenchmarkDijkstraMesh on the flat layout: the
// graph finalized to CSR and the traversal run through a reusable
// Workspace (epoch-stamped labels, pooled heap). The delta
// against BenchmarkDijkstraMesh is what the SoA refactor buys one
// shortest-path pass: no per-call dist allocation, no pointer-chasing
// across adjacency slices.
func BenchmarkDijkstraCSR(b *testing.B) {
	f := getFixture(b)
	g := graph.New(f.m.NumVerts())
	for _, e := range f.m.Edges() {
		g.AddEdge(int(e.A), int(e.B), f.m.EdgeLength(e))
	}
	g.Finalize()
	w := graph.NewWorkspace(g.NumVertices())
	w.Dijkstra(g, 0) // warm the workspace buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Dijkstra(g, i%f.m.NumVerts())
	}
}

// BenchmarkSharedSource ranks one query point against 32 objects on the
// pathnet both ways: one shared-source search advanced target by target
// (what a session does per query) and one point-to-point search per target.
// relax/op is the arcs relaxed per 32-target set; the distances are the
// same bits either way.
func BenchmarkSharedSource(b *testing.B) {
	f := getFixture(b)
	objs := f.db.Objects()[:32]
	modes := []struct {
		name  string
		serve func(q *pathnet.Querier)
	}{
		{"shared", func(q *pathnet.Querier) {
			q.ForgetSource()
			for _, o := range objs {
				q.FromSource(f.q, o.Point, math.Inf(1))
			}
		}},
		{"per-target", func(q *pathnet.Querier) {
			for _, o := range objs {
				q.DistanceValue(f.q, o.Point)
			}
		}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			q := f.db.Path.NewQuerier()
			mode.serve(q) // warm the frontier
			before := q.Relaxations()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mode.serve(q)
			}
			b.ReportMetric(float64(q.Relaxations()-before)/float64(b.N), "relax/op")
		})
	}
}

func BenchmarkRTreeKNN(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	items := make([]index.Item, 10000)
	for i := range items {
		items[i] = index.Item{P: geom.Vec2{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}, ID: int64(i)}
	}
	tr := index.Bulk(items)
	var sc index.Scratch
	var dst []index.Item
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = tr.KNNInto(geom.Vec2{X: 500, Y: 500}, 10, nil, nil, &sc, dst[:0])
	}
}

func BenchmarkMeshExtract(b *testing.B) {
	f := getFixture(b)
	tm := f.db.Tree.TimeForResolution(0.25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.db.Tree.ExtractMesh(f.m, tm)
	}
}

func BenchmarkSurfaceRange(b *testing.B) {
	f := getFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.db.NewSession().SurfaceRangeCtx(context.Background(), f.q, 500, core.S2, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Serving layer: HTTP overhead over the same engine ---

// benchServer drives one already-marshalled k-NN request through the full
// handler chain (routing, admission, session checkout, caching, metrics) —
// the cold/cached pair brackets what the HTTP layer adds to a raw MR3 call
// and what the result cache saves.
func benchServer(b *testing.B, cfg server.Config) {
	f := getFixture(b)
	s := server.New(f.db, cfg)
	body := []byte(`{"x":800,"y":800,"k":10}`)
	run := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/knn", bytes.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		return w.Code
	}
	if code := run(); code != http.StatusOK { // warm (and, when enabled, cache)
		b.Fatalf("status %d", code)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := run(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkServerKNNCold executes the query on every request (cache
// disabled): engine cost plus the serving layer's per-request overhead.
func BenchmarkServerKNNCold(b *testing.B) {
	benchServer(b, server.Config{CacheEntries: -1})
}

// BenchmarkServerKNNCached answers every request from the LRU result cache.
func BenchmarkServerKNNCached(b *testing.B) {
	benchServer(b, server.Config{CacheEntries: 16})
}

// --- Dynamic objects: k-NN under a live update stream ---

// BenchmarkKNNUnderUpdates measures k-NN latency while the object store
// takes interleaved inserts and deletes from the deterministic update-mix
// generator (8:1:1 query/insert/delete). Each iteration times one query;
// the updates drawn between queries are applied outside the timer, so the
// number compares directly against BenchmarkSequentialKNN: the delta is
// what epoch pinning plus a (possibly) non-quiesced store costs a reader.
// A private fixture keeps the epoch churn out of the shared database.
func BenchmarkKNNUnderUpdates(b *testing.B) {
	g := dem.Synthesize(dem.BH, 32, 50, 2006)
	m := mesh.FromGrid(g)
	db, err := core.BuildTerrainDB(m, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	objs, err := workload.RandomObjects(m, db.Loc, 80, 3)
	if err != nil {
		b.Fatal(err)
	}
	db.SetObjects(objs)
	mix, err := workload.NewUpdateMix(m, db.Loc, objs, workload.MixConfig{Seed: 11})
	if err != nil {
		b.Fatal(err)
	}
	store := db.ObjectStore()
	s := db.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Drain update ops until the mix yields a query, then time it.
		var q mesh.SurfacePoint
		b.StopTimer()
		for {
			op := mix.Next()
			if op.Kind == workload.OpQuery {
				q = op.Query
				break
			}
			switch op.Kind {
			case workload.OpInsert:
				store.Upsert(op.Objects)
			case workload.OpDelete:
				store.Delete(op.IDs)
			}
		}
		b.StartTimer()
		if _, err := s.MR3Ctx(context.Background(), q, 5, core.S2, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkContinuousKNN measures the continuous-query subsystem under the
// deterministic move-mix generator: 8 walkers random-walking their
// subscriptions while 1-in-50 operations upserts an object (epoch churn).
// One sub-benchmark per step size — the safe-region hit rate (reported as
// the "hits/move" metric) falls as steps grow, which is exactly the
// trade-off the safe radius certifies. Each iteration is one move through
// Monitor.Move: a hit serves the cached top-k with zero engine work, a miss
// pays a stripe re-evaluation.
func BenchmarkContinuousKNN(b *testing.B) {
	for _, step := range []float64{0.1, 0.5, 2} {
		b.Run(fmt.Sprintf("step=%g", step), func(b *testing.B) {
			// A dense private fixture: positive safe radii need more
			// enumerated candidates than k, and epoch churn must not touch
			// the shared database.
			g := dem.Synthesize(dem.EP, 16, 10, 2006)
			m := mesh.FromGrid(g)
			db, err := core.BuildTerrainDB(m, core.Config{})
			if err != nil {
				b.Fatal(err)
			}
			objs, err := workload.RandomObjects(m, db.Loc, 100, 3)
			if err != nil {
				b.Fatal(err)
			}
			db.SetObjects(objs)
			mon, err := continuous.New(db, continuous.Config{})
			if err != nil {
				b.Fatal(err)
			}
			defer mon.Close()
			mix, err := workload.NewMoveMix(m, db.Loc, workload.MoveMixConfig{Seed: 11, Walkers: 8, Step: step})
			if err != nil {
				b.Fatal(err)
			}
			ids := make([]uint64, 0, 8)
			for _, sp := range mix.Starts() {
				id, _, _, err := mon.Subscribe(nil, sp, 3, core.S1, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				ids = append(ids, id)
			}
			store := db.ObjectStore()
			var moves, hits int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Drain update ops until the mix yields a move, then time it.
				var op workload.MoveOp
				b.StopTimer()
				for {
					op = mix.Next()
					if op.Kind == workload.MoveOpMove {
						break
					}
					store.Upsert(op.Objects)
				}
				b.StartTimer()
				_, _, hit, err := mon.Move(nil, ids[op.Walker], op.Point.XY())
				if err != nil {
					b.Fatal(err)
				}
				moves++
				if hit {
					hits++
				}
			}
			b.StopTimer()
			if moves > 0 {
				b.ReportMetric(float64(hits)/float64(moves), "hits/move")
			}
		})
	}
}
