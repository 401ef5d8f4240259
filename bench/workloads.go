package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/server/api"
	"surfknn/internal/workload"
)

// scale fixes every size of the benchmark. fullScale is what BENCHMARK.json
// measures; the smoke test runs the same code at toyScale.
type scale struct {
	size      int // skgen -size: the grid has (size+1)² samples
	objects   int // skgen -db-objects
	dataPages int // pages of the terrain's DMTM and MSDN stores at this size
	smallPool int // skserve -pool-pages on knn_smallpool, about a third of dataPages
	setups    int // set-ups per run; setup_s is their median
	hot       int // hot points of hotspot_skql
	walkers   int // subscriptions of mixed_updates
	tail      int // updates applied after the timed window of a read-only workload
	post      int // post-run queries compared against the in-process replay
	probeN    int // iterations of each cheap layer probe
}

var (
	fullScale = scale{size: 64, objects: 160, dataPages: 1476, smallPool: 512, setups: 3, hot: 32, walkers: 16, tail: 400, post: 6, probeN: 200}
	toyScale  = scale{size: 16, objects: 40, dataPages: 96, smallPool: 32, setups: 1, hot: 8, walkers: 2, tail: 10, post: 2, probeN: 10}
)

// defaultPool is the buffer-pool capacity skserve uses when not told
// otherwise (core.Config's default).
const defaultPool = 4096

// Query shapes. One-shot queries ask for the paper's default k, with
// schedule 2 on the typed route and SKQL's default schedule 1 on /v1/query.
// Subscriptions follow their 3 nearest objects in steps of at most half a
// metre per axis: at this object density a safe region is a few metres wide at
// k=3 and empty at k=10, so this is where moves both hit and miss.
const (
	queryK    = 10
	knnSched  = 2
	skqlSched = 1
	moveK     = 3
	moveStep  = 0.5
)

type opKind uint8

const (
	opKNN       opKind = iota // POST /v1/knn
	opQuery                   // POST /v1/query (SKQL)
	opMove                    // POST /v1/subscribe/{id}/move
	opUpsert                  // POST /v1/objects
	opDelete                  // DELETE /v1/objects
	opSubscribe               // POST /v1/subscribe (warm-up only)
)

func (k opKind) String() string {
	return [...]string{"knn", "query", "move", "upsert", "delete", "subscribe"}[k]
}

// isRead reports whether the op reads (a query or a subscription move) or
// updates the object store.
func (k opKind) isRead() bool { return k == opKNN || k == opQuery || k == opMove }

// op is one request of a workload.
type op struct {
	kind   opKind
	x, y   float64            // query point (knn, query, move, subscribe)
	k      int                // neighbours asked for
	sched  int                // resolution schedule the server will use
	stmt   string             // SKQL text (opQuery)
	walker int                // which subscription moves (opMove, opSubscribe)
	objs   []api.UpsertObject // opUpsert
	ids    []int64            // opDelete
}

// opList is the ordered work of one phase. With order nil the ops run once
// each, in slice order, and the phase ends early if they run out; otherwise
// order indexes into ops and is cycled.
type opList struct {
	ops   []op
	order []uint16
}

func (l *opList) at(i int) *op {
	switch {
	case l.order != nil:
		return &l.ops[l.order[i%len(l.order)]]
	case i < len(l.ops):
		return &l.ops[i]
	}
	return nil
}

// workloadDef names a workload and says how it deploys and what it sends.
type workloadDef struct {
	name string
	why  string
	// fleet deploys skcoord over a 2×1 skgen -tiles fleet instead of one
	// skserve.
	fleet bool
	// smallPool starts skserve with the scale's reduced buffer pool.
	smallPool bool
	// updates: the timed ops include object updates, so answers depend on
	// the epoch and the sampled replay at epoch 0 does not apply.
	updates bool
	// gen builds the warm-up and the timed op lists from the seed. seconds
	// sizes lists that run once.
	gen func(db *core.TerrainDB, sc scale, seed int64, seconds float64) (warm, timed opList, err error)
}

var workloads = []workloadDef{
	{
		name: "knn_uniform",
		why:  "distinct k-NN points, data fits the buffer pool, cache never hits: engine-bound (core, pathnet, multires, sdn)",
		gen:  genKNN,
	},
	{
		name:      "knn_smallpool",
		why:       "the same ops against a buffer pool a third of the data: the paper's data >> memory regime, where storage shows",
		smallPool: true,
		gen:       genKNN,
	},
	{
		name: "hotspot_skql",
		why:  "Zipf-repeated SKQL statements served from the result cache: only server and sklang per-request overhead is left",
		gen:  genHotspot,
	},
	{
		name:    "mixed_updates",
		why:     "k-NN and subscription moves beside upserts and deletes: objstore epochs, epoch-keyed cache, safe-region invalidation",
		updates: true,
		gen:     genMixed,
	},
	{
		name:  "fleet_knn",
		why:   "knn_uniform's ops through skcoord over a 2x1 shard fleet: the coordinator's own routes and the distribution tax",
		fleet: true,
		gen:   genKNN,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// Start indexes into the point sequence, far enough apart that the timed
// ops, the warm-up, the hot set and the post-run queries never share a
// point (a shared point would be a result-cache hit where none is meant).
const (
	timedStart  = 0
	warmStart   = 1 << 20
	hotStart    = 2 << 20
	postStart   = 3 << 20
	warmKNN     = 8   // warm-up queries of the k-NN workloads
	knnPerSec   = 200 // list sizing: far above what two clients complete
	mixedPerSec = 600
)

// points returns n query points on the terrain, taken from index start of
// a low-discrepancy sequence (R2: multiples of the plastic number's
// reciprocal powers, modulo 1) shifted by the seed. Every prefix of the
// sequence covers the terrain evenly, so a run that completes a few ops
// more or fewer still averages over the whole surface, and two seeds give
// different points without one of them drawing an unluckily cheap region.
// Points the terrain cannot lift (numerical boundary cases) are skipped.
func points(db *core.TerrainDB, seed int64, start, n int) []geom.Vec2 {
	const g = 1.32471795724474602596
	rng := rand.New(rand.NewSource(seed))
	sx, sy := rng.Float64(), rng.Float64()
	ext := db.Mesh.Extent()
	mx, my := 0.05*ext.Width(), 0.05*ext.Height()
	out := make([]geom.Vec2, 0, n)
	for i := start; len(out) < n; i++ {
		_, u := math.Modf(sx + float64(i+1)/g)
		_, v := math.Modf(sy + float64(i+1)/(g*g))
		p := geom.Vec2{
			X: ext.MinX + mx + u*(ext.Width()-2*mx),
			Y: ext.MinY + my + v*(ext.Height()-2*my),
		}
		if _, err := db.SurfacePointAt(p); err != nil {
			continue
		}
		out = append(out, p)
	}
	return out
}

func knnOps(db *core.TerrainDB, seed int64, start, n int) []op {
	pts := points(db, seed, start, n)
	ops := make([]op, len(pts))
	for i, p := range pts {
		ops[i] = op{kind: opKNN, x: p.X, y: p.Y, k: queryK, sched: knnSched}
	}
	return ops
}

// genKNN serves knn_uniform, knn_smallpool and fleet_knn: the same seed
// gives all three the same points in the same order.
func genKNN(db *core.TerrainDB, _ scale, seed int64, seconds float64) (warm, timed opList, err error) {
	warm.ops = knnOps(db, seed, warmStart, warmKNN)
	timed.ops = knnOps(db, seed, timedStart, int(seconds*knnPerSec)+1)
	return warm, timed, nil
}

// genHotspot draws statements Zipf(1.2) from the hot points, each spelled
// one of three ways that canonicalise to the same cache key. The warm-up
// runs every spelling once, so the timed window starts with the hot set
// cached.
func genHotspot(db *core.TerrainDB, sc scale, seed int64, _ float64) (warm, timed opList, err error) {
	hot := points(db, seed, hotStart, sc.hot)
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	spell := [3]func(x, y string) string{
		func(x, y string) string { return fmt.Sprintf("SELECT k=%d NEAREST (%s, %s)", queryK, x, y) },
		func(x, y string) string { return fmt.Sprintf("select k=%d nearest (%s,%s)", queryK, x, y) },
		func(x, y string) string { return fmt.Sprintf("  Select  k = %d  Nearest ( %s , %s )", queryK, x, y) },
	}
	for v := range spell {
		for _, p := range hot {
			timed.ops = append(timed.ops, op{kind: opQuery, x: p.X, y: p.Y, k: queryK, sched: skqlSched,
				stmt: spell[v](num(p.X), num(p.Y))})
		}
	}
	warm.ops = timed.ops
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(hot)-1))
	timed.order = make([]uint16, 1<<18)
	for i := range timed.order {
		timed.order[i] = uint16(rng.Intn(len(spell))*len(hot) + int(zipf.Uint64()))
	}
	return warm, timed, nil
}

// genMixed interleaves 45 % k-NN, 15 % subscription moves, 30 % upserts
// and 10 % deletes. Moves come from workload.MoveMix (random walkers),
// updates from workload.UpdateMix (3:1 upserts to deletes; it never empties
// the store). Every block of 20 ops holds exactly 9 k-NN, 3 moves and 8
// updates in a seeded order, so that any window of a run carries the same
// mix. The warm-up registers the subscriptions.
func genMixed(db *core.TerrainDB, sc scale, seed int64, seconds float64) (warm, timed opList, err error) {
	moves, err := workload.NewMoveMix(db.Mesh, db.Loc, workload.MoveMixConfig{
		Walkers: sc.walkers, Step: moveStep, MoveWeight: 1, Seed: seed,
	})
	if err != nil {
		return warm, timed, fmt.Errorf("move mix: %w", err)
	}
	updates, err := workload.NewUpdateMix(db.Mesh, db.Loc, db.Objects(), workload.MixConfig{
		InsertWeight: 3, DeleteWeight: 1, Seed: seed,
	})
	if err != nil {
		return warm, timed, fmt.Errorf("update mix: %w", err)
	}
	for w, sp := range moves.Starts() {
		warm.ops = append(warm.ops, op{kind: opSubscribe, x: sp.XY().X, y: sp.XY().Y, k: moveK, sched: knnSched, walker: w})
	}
	warm.ops = append(warm.ops, knnOps(db, seed, warmStart, warmKNN/2)...)

	block := []opKind{opKNN, opKNN, opKNN, opKNN, opKNN, opKNN, opKNN, opKNN, opKNN,
		opMove, opMove, opMove, opUpsert, opUpsert, opUpsert, opUpsert, opUpsert, opUpsert, opUpsert, opUpsert}
	blocks := int(seconds*mixedPerSec)/len(block) + 1
	knn := knnOps(db, seed, timedStart, 9*blocks)
	rng := rand.New(rand.NewSource(seed))
	timed.ops = make([]op, 0, blocks*len(block))
	for b := 0; b < blocks; b++ {
		rng.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, kind := range block {
			switch kind {
			case opKNN:
				timed.ops = append(timed.ops, knn[0])
				knn = knn[1:]
			case opMove:
				m := moves.Next()
				p := m.Point.XY()
				timed.ops = append(timed.ops, op{kind: opMove, x: p.X, y: p.Y, k: moveK, sched: knnSched, walker: m.Walker})
			default:
				timed.ops = append(timed.ops, updateOp(updates.Next()))
			}
		}
	}
	return warm, timed, nil
}

// updateOp converts a workload.UpdateMix op to its request.
func updateOp(u workload.Op) op {
	if u.Kind == workload.OpDelete {
		return op{kind: opDelete, ids: u.IDs}
	}
	o := op{kind: opUpsert, objs: make([]api.UpsertObject, len(u.Objects))}
	for i, obj := range u.Objects {
		id := obj.ID
		p := obj.Point.XY()
		o.objs[i] = api.UpsertObject{ID: &id, X: p.X, Y: p.Y}
	}
	return o
}

// tailOps is the update tail of a read-only workload: single-object upserts
// and deletes applied after the timed window, so that the update routes of
// every deployment (the coordinator's included) are exercised, verified and
// timed, not only those of the workload whose window itself writes.
func tailOps(db *core.TerrainDB, seed int64, n int) (opList, error) {
	updates, err := workload.NewUpdateMix(db.Mesh, db.Loc, db.Objects(), workload.MixConfig{
		InsertWeight: 3, DeleteWeight: 1, Seed: seed,
	})
	if err != nil {
		return opList{}, fmt.Errorf("update mix: %w", err)
	}
	var l opList
	for i := 0; i < n; i++ {
		l.ops = append(l.ops, updateOp(updates.Next()))
	}
	return l, nil
}
