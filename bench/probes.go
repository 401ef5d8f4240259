package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/mesh"
	"surfknn/internal/multires"
	"surfknn/internal/objstore"
	"surfknn/internal/server/api"
	"surfknn/internal/sklang"
	"surfknn/internal/storage"
	"surfknn/internal/workload"
)

// probeBudget bounds one layer probe: it stops after its iteration count or
// this much time, whichever comes first, so the traced run's extra cost is
// bounded whatever a layer costs.
const probeBudget = 300 * time.Millisecond

// prober times calls into single layers' public functions, in the
// benchmark's own process, on the snapshot the servers loaded and on inputs
// taken from the workload. Each probe is a span tree probe.<layer> → call.
type prober struct {
	db    *core.TerrainDB
	log   *spanLog
	clock func() int64
	sc    scale
	from  []mesh.SurfacePoint // query points of the workload's ops
	to    []mesh.SurfacePoint // object positions
	stmts []string            // the workload's statements (or its k-NN ops spelled in SKQL)
}

func newProber(db *core.TerrainDB, log *spanLog, clock func() int64, sc scale, samples []sample) (*prober, error) {
	p := &prober{db: db, log: log, clock: clock, sc: sc}
	for i := range samples {
		o := samples[i].op
		if !o.kind.isRead() || len(p.from) >= 32 {
			continue
		}
		sp, err := db.SurfacePointAt(geom.Vec2{X: o.x, Y: o.y})
		if err != nil {
			return nil, fmt.Errorf("probe input (%g, %g): %w", o.x, o.y, err)
		}
		p.from = append(p.from, sp)
		stmt := o.stmt
		if stmt == "" {
			stmt = fmt.Sprintf("SELECT k=%d NEAREST (%s, %s) USING s=%d", queryK,
				strconv.FormatFloat(o.x, 'g', -1, 64), strconv.FormatFloat(o.y, 'g', -1, 64), o.sched)
		}
		p.stmts = append(p.stmts, stmt)
	}
	if len(p.from) == 0 {
		return nil, fmt.Errorf("no read op to take probe inputs from")
	}
	for _, o := range db.Objects() {
		p.to = append(p.to, o.Point)
	}
	return p, nil
}

// each runs call up to sc.probeN times within probeBudget under one probe.<layer>
// root, one child span per call, and returns the mean call time in ns.
func (p *prober) each(layer string, call func(i int)) float64 {
	req := "probe." + layer
	root := p.log.add(0, req, req, p.clock(), 0)
	var total int64
	done := 0
	for deadline := time.Now().Add(probeBudget); done < p.sc.probeN && (done == 0 || time.Now().Before(deadline)); done++ {
		t0 := p.clock()
		call(done)
		t1 := p.clock()
		p.log.add(root, req, "call", t0, t1)
		total += t1 - t0
	}
	p.log.spans[root-1].End = p.clock()
	return float64(total) / float64(done)
}

// pair picks the i-th (query point, object position) input.
func (p *prober) pair(i int) (mesh.SurfacePoint, mesh.SurfacePoint) {
	return p.from[i%len(p.from)], p.to[(7*i)%len(p.to)]
}

// run executes every probe and returns the per-layer metrics they feed.
func (p *prober) run() (map[string]float64, error) {
	m := make(map[string]float64)
	db := p.db
	const batch = 1000 // calls per span for probes in the nanosecond range

	// server: marshal one k-row answer, the body of every read response.
	res := api.Result{Cost: api.Cost{Pages: 10121, CPUUs: 201818, ElapsedUs: 10322818}}
	for i := 0; i < queryK; i++ {
		o := p.to[i%len(p.to)]
		res.Neighbors = append(res.Neighbors, api.Neighbor{ID: int64(i), X: o.Pos.X, Y: o.Pos.Y, Z: o.Pos.Z,
			LB: api.Float(o.Pos.X), UB: api.Float(o.Pos.Y)})
	}
	var encErr error
	m["server.encode_us"] = p.each("server", func(int) {
		for j := 0; j < batch; j++ {
			if _, err := json.Marshal(res); err != nil {
				encErr = err
			}
		}
	}) / batch / 1e3
	if encErr != nil {
		return nil, fmt.Errorf("probe.server: %w", encErr)
	}

	// sklang: lex, parse, canonicalise and plan the workload's statements.
	cat := sklang.Catalog{Objects: len(p.to), Faces: db.Mesh.NumFaces(), Area: db.Mesh.Extent().Area()}
	var planErr error
	m["sklang.parse_plan_us"] = p.each("sklang", func(int) {
		for _, s := range p.stmts {
			st, err := sklang.Parse(s)
			if err == nil {
				_, err = sklang.PlanStmt(st, cat)
			}
			if err != nil {
				planErr = err
			}
		}
	}) / float64(len(p.stmts)) / 1e3
	if planErr != nil {
		return nil, fmt.Errorf("probe.sklang: %w", planErr)
	}

	// core: what a request pays to borrow a session from the free list.
	m["core.session_checkout_us"] = p.each("core.session", func(int) {
		for j := 0; j < batch; j++ {
			db.Release(db.AcquireSession())
		}
	}) / batch / 1e3

	// storage: BufferPool.Get+Unpin over a file the size of this terrain's
	// data. At capacity ≥ file every Get after the first pass hits; at the
	// small pool's capacity a cyclic scan longer than the pool defeats LRU,
	// so every Get misses.
	hit, miss, err := p.storage()
	if err != nil {
		return nil, fmt.Errorf("probe.storage: %w", err)
	}
	m["storage.get_hit_ns"], m["storage.get_miss_ns"] = hit, miss

	// index: the 2-D k-NN over the object R-tree (MR3 step 1).
	m["index.knn2d_us"] = p.each("index", func(i int) {
		for j := 0; j < batch; j++ {
			db.KNN2D(p.from[(i+j)%len(p.from)].XY(), queryK)
		}
	}) / batch / 1e3

	// pathnet: one point-to-point surface distance on the refined network;
	// its cost per successful relaxation is the Dijkstra inner loop's.
	q := db.Path.NewQuerier()
	relaxed := q.Relaxations()
	n := 0
	mean := p.each("pathnet", func(i int) {
		a, b := p.pair(i)
		q.DistanceValue(a, b)
		n++
	})
	m["pathnet.ns_per_relaxation"] = per(mean*float64(n), int(q.Relaxations()-relaxed))

	// graph: one full single-source Dijkstra over the pathnet's CSR graph.
	ws := graph.NewWorkspace(db.Path.G.NumVertices())
	m["graph.dijkstra_csr_us"] = p.each("graph", func(i int) {
		ws.Dijkstra(db.Path.G, (i*977)%db.Path.G.NumVertices())
	}) / 1e3

	// multires: one DMTM upper bound at 50 % resolution.
	tm := db.Tree.TimeForResolution(0.5)
	all := func(multires.NodeID) bool { return true }
	m["multires.upper_bound_us"] = p.each("multires", func(i int) {
		a, b := p.pair(i)
		db.Tree.UpperBound(db.Mesh, a, b, tm, all)
	}) / 1e3

	// sdn: one MSDN lower bound at 50 % resolution over the whole terrain.
	ext := db.Mesh.Extent()
	m["sdn.lower_bound_us"] = p.each("sdn", func(i int) {
		a, b := p.pair(i)
		db.MSDN.LowerBound(a.Pos, b.Pos, ext, 0.5)
	}) / 1e3

	// objstore: publish one epoch carrying one object, the batch size the
	// workloads send.
	store := objstore.NewAt(append([]workload.Object(nil), db.Objects()...), 0)
	m["objstore.apply_us"] = p.each("objstore", func(i int) {
		store.Upsert([]workload.Object{{ID: int64(5_000_000 + i), Point: p.from[i%len(p.from)]}})
	}) / 1e3
	return m, nil
}

// storage times Get+Unpin on a hit-only and a miss-only access pattern and
// returns the mean ns of each.
func (p *prober) storage() (hit, miss float64, err error) {
	pages := p.sc.dataPages
	file := storage.NewMemFile()
	for i := 0; i < pages; i++ {
		if _, err := file.Alloc(); err != nil {
			return 0, 0, err
		}
	}
	order := rand.New(rand.NewSource(1)).Perm(pages)
	pass := func(bp *storage.BufferPool) error {
		for _, id := range order {
			fr, err := bp.Get(storage.PageID(id), nil)
			if err != nil {
				return err
			}
			bp.Unpin(fr, false)
		}
		return nil
	}
	measure := func(layer string, capacity int) (float64, error) {
		bp := storage.NewBufferPool(file, capacity)
		err := pass(bp) // fill the pool
		mean := p.each(layer, func(int) {
			if perr := pass(bp); perr != nil {
				err = perr
			}
		})
		return mean / float64(pages), err
	}
	if hit, err = measure("storage.hit", max(defaultPool, pages+1)); err != nil {
		return 0, 0, err
	}
	miss, err = measure("storage.miss", p.sc.smallPool)
	return hit, miss, err
}
