package shard

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/server"
	"surfknn/internal/server/api"
	"surfknn/internal/server/client"
	"surfknn/internal/server/front"
	"surfknn/internal/sklang"
	"surfknn/internal/workload"
)

// buildSourceDB is the golden fixture: the same terrain shape the server
// tests use, with enough objects that a 2×2 cut puts several in every tile.
func buildSourceDB(t testing.TB) *core.TerrainDB {
	t.Helper()
	g := dem.Synthesize(dem.EP, 16, 100, 2006)
	m := mesh.FromGrid(g)
	db, err := core.BuildTerrainDB(m, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := workload.RandomObjects(m, db.Loc, 60, 2007)
	if err != nil {
		t.Fatal(err)
	}
	db.SetObjects(objs)
	return db
}

// fleet is a live 2×2 sharded deployment over httptest servers.
type fleet struct {
	coord    *Coordinator
	servers  []*httptest.Server
	manifest *Manifest
}

// startFleet cuts db into nx×ny shard snapshots, loads each into its own
// server.Server behind httptest, and wires a verified coordinator over
// them.
func startFleet(t *testing.T, db *core.TerrainDB, nx, ny int) *fleet {
	t.Helper()
	dir := t.TempDir()
	man, err := Cut(db, nx, ny, dir, "golden")
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{manifest: man}
	for i := range man.Shards {
		sdb, err := core.LoadFile(dir+"/"+man.Shards[i].File, core.Config{})
		if err != nil {
			t.Fatalf("loading shard %s: %v", man.Shards[i].ID, err)
		}
		srv := server.New(sdb, server.Config{ShardID: man.Shards[i].ID, CacheEntries: -1})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		f.servers = append(f.servers, ts)
		man.Shards[i].Addr = ts.URL
	}
	f.coord, err = New(Config{Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.coord.Verify(context.Background()); err != nil {
		t.Fatalf("verify: %v", err)
	}
	return f
}

// runStatement compiles one SKQL statement against the fleet catalog and
// executes the plan on the coordinator directly (no HTTP), returning the
// merged result and epoch.
func runStatement(ctx context.Context, c *Coordinator, q string) (api.Result, uint64, error) {
	plan, err := sklang.Compile(q, c.Catalog())
	if err != nil {
		return api.Result{}, 0, err
	}
	var ans front.Answer
	_, err = c.Execute(ctx, front.Request{Plan: plan, Encode: func(a *front.Answer) ([]byte, error) {
		ans = *a
		return nil, nil
	}})
	return ans.Query.Result, ans.Epoch, err
}

// wireNeighbors converts an engine result to wire form for bitwise
// comparison with a coordinator answer.
func wireNeighbors(res core.Result) []api.Neighbor {
	out := make([]api.Neighbor, len(res.Neighbors))
	for i, n := range res.Neighbors {
		out[i] = api.Neighbor{
			ID: n.Object.ID,
			X:  n.Object.Point.Pos.X,
			Y:  n.Object.Point.Pos.Y,
			Z:  n.Object.Point.Pos.Z,
			LB: api.Float(n.LB),
			UB: api.Float(n.UB),
		}
	}
	return out
}

// requireIdentical asserts two neighbour lists match in membership, order
// and exact float bits.
func requireIdentical(t *testing.T, label string, got, want []api.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbours, want %d\ngot:  %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID {
			t.Fatalf("%s: neighbour %d id %d, want %d\ngot:  %+v\nwant: %+v", label, i, g.ID, w.ID, got, want)
		}
		if math.Float64bits(g.X) != math.Float64bits(w.X) ||
			math.Float64bits(g.Y) != math.Float64bits(w.Y) ||
			math.Float64bits(g.Z) != math.Float64bits(w.Z) {
			t.Errorf("%s: neighbour %d position (%v,%v,%v) not bit-identical to (%v,%v,%v)",
				label, i, g.X, g.Y, g.Z, w.X, w.Y, w.Z)
		}
		if math.Float64bits(float64(g.LB)) != math.Float64bits(float64(w.LB)) ||
			math.Float64bits(float64(g.UB)) != math.Float64bits(float64(w.UB)) {
			t.Errorf("%s: neighbour %d bounds [%v,%v] not bit-identical to [%v,%v]",
				label, i, float64(g.LB), float64(g.UB), float64(w.LB), float64(w.UB))
		}
	}
}

// TestTilingPartition pins the ownership geometry: every point maps to
// exactly one tile whose region contains it, and the cut partitions the
// object set without loss or duplication.
func TestTilingPartition(t *testing.T) {
	db := buildSourceDB(t)
	tiling := Tiling{NX: 3, NY: 2, Extent: db.Mesh.Extent()}
	for _, o := range db.Objects() {
		p := o.Point.XY()
		ix, iy := tiling.TileOf(p)
		r := tiling.Region(ix, iy)
		// Containment with the half-open convention: the region's Contains
		// is closed, so the owned point must at least lie in the closed
		// rectangle.
		if !r.Contains(p) {
			t.Errorf("object %d at %v assigned to tile (%d,%d) with region %+v", o.ID, p, ix, iy, r)
		}
	}
	dir := t.TempDir()
	man, err := Cut(db, 3, 2, dir, "part")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range man.Shards {
		total += s.Objects
	}
	if total != len(db.Objects()) {
		t.Errorf("cut distributed %d objects, source has %d", total, len(db.Objects()))
	}
	if man.Epoch != db.CurrentEpoch() {
		t.Errorf("manifest epoch %d, source at %d", man.Epoch, db.CurrentEpoch())
	}
}

// TestManifestRoundTrip pins the manifest file format.
func TestManifestRoundTrip(t *testing.T) {
	db := buildSourceDB(t)
	dir := t.TempDir()
	man, err := Cut(db, 2, 2, dir, "rt")
	if err != nil {
		t.Fatal(err)
	}
	path := dir + "/rt.manifest.json"
	if err := WriteManifest(man, path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NX != man.NX || back.NY != man.NY || back.Epoch != man.Epoch || len(back.Shards) != len(man.Shards) {
		t.Errorf("round trip changed the manifest: %+v vs %+v", back, man)
	}
	if got := back.Tiling().Extent; got != db.Mesh.Extent() {
		t.Errorf("extent round trip: %+v, want %+v", got, db.Mesh.Extent())
	}
}

// TestShardedEquivalence is the acceptance test of the whole subsystem: a
// 2×2-sharded fleet must answer MR3 k-NN, EA and surface range queries
// bit-identically — same objects, same order, same float bits in every
// bound, same epoch — to the unsharded database, before and after a
// sequence of coordinator-routed updates.
func TestShardedEquivalence(t *testing.T) {
	db := buildSourceDB(t)
	f := startFleet(t, db, 2, 2)
	ctx := context.Background()

	queries := []struct {
		x, y float64
		k    int
	}{
		{800, 800, 5},
		{200, 300, 3},
		{1400, 200, 7},
		{100, 1450, 1},
		{900, 1000, 10},
	}

	check := func(stage string) {
		t.Helper()
		wantEpoch := db.CurrentEpoch()
		for _, qc := range queries {
			q, err := db.SurfacePointAt(geom.Vec2{X: qc.x, Y: qc.y})
			if err != nil {
				t.Fatal(err)
			}

			// MR3 k-NN.
			direct, err := db.NewSession().MR3Ctx(context.Background(), q, qc.k, core.S1, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, epoch, err := runStatement(ctx, f.coord, fmt.Sprintf("SELECT k=%d NEAREST (%g, %g)", qc.k, qc.x, qc.y))
			if err != nil {
				t.Fatalf("%s: coordinator knn(%g,%g,k=%d): %v", stage, qc.x, qc.y, qc.k, err)
			}
			requireIdentical(t, stage+" knn", res.Neighbors, wireNeighbors(direct))
			if epoch != wantEpoch {
				t.Errorf("%s knn: merged epoch %d, unsharded at %d", stage, epoch, wantEpoch)
			}

			// EA.
			directEA, err := db.NewSession().EACtx(context.Background(), q, qc.k)
			if err != nil {
				t.Fatal(err)
			}
			eaRes, eaEpoch, err := runStatement(ctx, f.coord, fmt.Sprintf("SELECT k=%d NEAREST (%g, %g) ACCURACY 1", qc.k, qc.x, qc.y))
			if err != nil {
				t.Fatalf("%s: coordinator ea: %v", stage, err)
			}
			requireIdentical(t, stage+" ea", eaRes.Neighbors, wireNeighbors(directEA))
			if eaEpoch != wantEpoch {
				t.Errorf("%s ea: merged epoch %d, unsharded at %d", stage, eaEpoch, wantEpoch)
			}

			// Surface range, radius picked from the k-NN answer so it is
			// always meaningful.
			if len(direct.Neighbors) > 0 {
				radius := direct.Neighbors[len(direct.Neighbors)-1].UB * 1.1
				if radius > 0 && !math.IsInf(radius, 1) {
					directRange, err := db.NewSession().SurfaceRangeCtx(context.Background(), q, radius, core.S1, core.Options{})
					if err != nil {
						t.Fatal(err)
					}
					rr, rEpoch, err := runStatement(ctx, f.coord, fmt.Sprintf("RANGE (%g, %g) WITHIN %s", qc.x, qc.y,
						strconv.FormatFloat(radius, 'g', -1, 64)))
					if err != nil {
						t.Fatalf("%s: coordinator range: %v", stage, err)
					}
					requireIdentical(t, stage+" range", rr.Neighbors, wireNeighbors(directRange))
					if rEpoch != wantEpoch {
						t.Errorf("%s range: merged epoch %d, unsharded at %d", stage, rEpoch, wantEpoch)
					}
				}
			}
		}
	}

	check("initial")

	// Apply the same logical updates to the fleet (through the coordinator)
	// and the unsharded database: inserts, a cross-tile move, deletes.
	id := func(v int64) *int64 { return &v }
	up1 := api.UpsertRequest{Objects: []api.UpsertObject{
		{ID: id(9001), X: 150, Y: 150},   // tile (0,0)
		{ID: id(9002), X: 1400, Y: 1400}, // tile (1,1)
	}}
	if _, err := f.coord.Upsert(ctx, up1); err != nil {
		t.Fatalf("upsert 1: %v", err)
	}
	mirror := func(objs []api.UpsertObject) {
		t.Helper()
		batch := make([]workload.Object, len(objs))
		for i, o := range objs {
			p, err := db.SurfacePointAt(geom.Vec2{X: o.X, Y: o.Y})
			if err != nil {
				t.Fatal(err)
			}
			batch[i] = workload.Object{ID: *o.ID, Point: p}
		}
		db.ObjectStore().Upsert(batch)
	}
	mirror(up1.Objects)
	check("after insert")

	// Move 9001 across the tile boundary: the coordinator must route the
	// upsert to tile (1,1) and broadcast the delete to the rest.
	up2 := api.UpsertRequest{Objects: []api.UpsertObject{{ID: id(9001), X: 1300, Y: 1350}}}
	if _, err := f.coord.Upsert(ctx, up2); err != nil {
		t.Fatalf("move: %v", err)
	}
	mirror(up2.Objects)
	check("after cross-tile move")

	del := api.DeleteRequest{IDs: []int64{9002, 424242}}
	dres, err := f.coord.Delete(ctx, del)
	if err != nil {
		t.Fatalf("delete: %v", err)
	}
	if dres.Deleted != 1 || dres.Missing != 1 {
		t.Errorf("delete response = %+v, want deleted 1 missing 1", dres)
	}
	db.ObjectStore().Delete(del.IDs)
	check("after delete")

	if got, want := dres.Epoch, db.CurrentEpoch(); got != want {
		t.Errorf("fleet epoch %d after updates, unsharded at %d", got, want)
	}
}

// TestUpsertRepeatedIDAcrossTiles: an upsert batch that names one ID twice,
// at positions owned by two different tiles, leaves the object live once —
// at its last position, on the tile owning that — exactly as the unsharded
// store's last-occurrence-wins upsert does.
func TestUpsertRepeatedIDAcrossTiles(t *testing.T) {
	db := buildSourceDB(t)
	f := startFleet(t, db, 2, 2)
	ctx := context.Background()

	id := int64(777)
	req := api.UpsertRequest{Objects: []api.UpsertObject{
		{ID: &id, X: 200, Y: 200},   // tile (0,0)
		{ID: &id, X: 1300, Y: 1300}, // tile (1,1): this one wins
	}}
	res, err := f.coord.Upsert(ctx, req)
	if err != nil {
		t.Fatalf("upsert: %v", err)
	}
	batch := make([]workload.Object, len(req.Objects))
	for i, o := range req.Objects {
		p, err := db.SurfacePointAt(geom.Vec2{X: o.X, Y: o.Y})
		if err != nil {
			t.Fatal(err)
		}
		batch[i] = workload.Object{ID: *o.ID, Point: p}
	}
	db.ObjectStore().Upsert(batch)
	if res.Epoch != db.CurrentEpoch() {
		t.Errorf("fleet epoch %d, unsharded at %d", res.Epoch, db.CurrentEpoch())
	}

	hz, err := f.coord.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(db.Objects()); hz.Objects != want {
		t.Errorf("fleet holds %d objects, unsharded store %d", hz.Objects, want)
	}
	for _, p := range []geom.Vec2{{X: 200, Y: 200}, {X: 1300, Y: 1300}} {
		q, err := db.SurfacePointAt(p)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := db.NewSession().MR3Ctx(ctx, q, 5, core.S1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := runStatement(ctx, f.coord, fmt.Sprintf("SELECT k=5 NEAREST (%g, %g)", p.X, p.Y))
		if err != nil {
			t.Fatalf("coordinator knn at %v: %v", p, err)
		}
		requireIdentical(t, fmt.Sprintf("knn at %v", p), got.Neighbors, wireNeighbors(direct))
	}
}

// TestCoordinatorHTTP drives the public API through the coordinator's own
// HTTP handler: the same bodies a standalone server accepts, the merged
// epoch in X-Epoch, and typed envelopes on errors.
func TestCoordinatorHTTP(t *testing.T) {
	db := buildSourceDB(t)
	f := startFleet(t, db, 2, 2)
	ts := httptest.NewServer(f.coord.Handler())
	t.Cleanup(ts.Close)
	cli := client.New(ts.URL)
	ctx := context.Background()

	res, meta, err := cli.KNN(ctx, api.KNNRequest{X: 800, Y: 800, K: 5})
	if err != nil {
		t.Fatalf("knn via coordinator: %v", err)
	}
	q, err := db.SurfacePointAt(geom.Vec2{X: 800, Y: 800})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.NewSession().MR3Ctx(context.Background(), q, 5, core.S1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "http knn", res.Neighbors, wireNeighbors(direct))
	if meta.Epoch != db.CurrentEpoch() {
		t.Errorf("X-Epoch %d, want %d", meta.Epoch, db.CurrentEpoch())
	}

	// An upsert through the coordinator advances X-Epoch fleet-wide.
	id := int64(7777)
	ur, umeta, err := cli.Upsert(ctx, api.UpsertRequest{Objects: []api.UpsertObject{{ID: &id, X: 800, Y: 800}}})
	if err != nil {
		t.Fatalf("upsert via coordinator: %v", err)
	}
	if ur.Epoch != db.CurrentEpoch()+1 || umeta.Epoch != ur.Epoch {
		t.Errorf("upsert epoch body=%d header=%d, want %d", ur.Epoch, umeta.Epoch, db.CurrentEpoch()+1)
	}
	res2, meta2, err := cli.KNN(ctx, api.KNNRequest{X: 800, Y: 800, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Neighbors) != 1 || res2.Neighbors[0].ID != id {
		t.Errorf("nearest after upsert = %+v, want id %d", res2.Neighbors, id)
	}
	if meta2.Epoch != ur.Epoch {
		t.Errorf("post-upsert X-Epoch %d, want %d", meta2.Epoch, ur.Epoch)
	}

	// Healthz reports the full topology.
	hz, err := cli.Healthz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || len(hz.Shards) != 4 {
		t.Errorf("coordinator healthz = %+v", hz)
	}
	for _, sh := range hz.Shards {
		if sh.Status != "ok" || sh.Epoch != ur.Epoch {
			t.Errorf("shard health %+v, want ok at epoch %d", sh, ur.Epoch)
		}
	}

	// Validation failures are typed envelopes, not scatters.
	_, _, err = cli.KNN(ctx, api.KNNRequest{X: 800, Y: 800, K: 0})
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.Status != http.StatusBadRequest || apiErr.Code != api.CodeBadRequest {
		t.Errorf("k=0 error = %v, want 400 bad_request", err)
	}
}

// TestShardDownDegradation pins graceful degradation: with one shard dead,
// queries that need it answer 503 shard_unavailable naming the shard, and
// the coordinator's healthz reports "degraded" rather than failing.
func TestShardDownDegradation(t *testing.T) {
	db := buildSourceDB(t)
	f := startFleet(t, db, 2, 2)
	ts := httptest.NewServer(f.coord.Handler())
	t.Cleanup(ts.Close)
	cli := client.New(ts.URL)
	ctx := context.Background()

	// Kill tile-1-1.
	f.servers[3].Close()
	downID := f.manifest.Shards[3].ID

	_, _, err := cli.KNN(ctx, api.KNNRequest{X: 800, Y: 800, K: 5})
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) {
		t.Fatalf("knn with a dead shard = %v, want APIError", err)
	}
	if apiErr.Status != http.StatusServiceUnavailable || apiErr.Code != api.CodeShardUnavailable {
		t.Fatalf("status %d code %q, want 503 shard_unavailable", apiErr.Status, apiErr.Code)
	}
	if len(apiErr.Shards) != 1 || apiErr.Shards[0].Shard != downID {
		t.Errorf("degraded envelope shards = %+v, want exactly %q", apiErr.Shards, downID)
	}

	// Updates must also refuse rather than partially apply silently.
	id := int64(8888)
	_, _, err = cli.Upsert(ctx, api.UpsertRequest{Objects: []api.UpsertObject{{ID: &id, X: 100, Y: 100}}})
	if !asAPIError(err, &apiErr) || apiErr.Code != api.CodeShardUnavailable {
		t.Errorf("upsert with a dead shard = %v, want shard_unavailable", err)
	}

	// Healthz keeps answering, marked degraded.
	hz, err := cli.Healthz(ctx)
	if err != nil {
		t.Fatalf("healthz with a dead shard: %v", err)
	}
	if hz.Status != "degraded" {
		t.Errorf("fleet status %q, want degraded", hz.Status)
	}
	down := 0
	for _, sh := range hz.Shards {
		if sh.Status == "unreachable" {
			down++
			if sh.ID != downID {
				t.Errorf("unreachable shard %q, want %q", sh.ID, downID)
			}
		}
	}
	if down != 1 {
		t.Errorf("%d unreachable shards, want 1", down)
	}

	// A query whose search region stays clear of the dead tile still
	// answers: distance is terrain-only and fails over.
	if _, _, err := cli.Distance(ctx, api.DistanceRequest{X: 100, Y: 100, X2: 300, Y2: 200}); err != nil {
		t.Errorf("distance with a dead shard: %v", err)
	}
}

// TestVerifyRejectsMismatchedTopology pins the startup check: a manifest
// pointing a tile at the wrong shard process must be caught before
// traffic.
func TestVerifyRejectsMismatchedTopology(t *testing.T) {
	db := buildSourceDB(t)
	dir := t.TempDir()
	man, err := Cut(db, 2, 1, dir, "mis")
	if err != nil {
		t.Fatal(err)
	}
	// Both manifest entries point at the same process, which can only be
	// one of the two tiles.
	sdb, err := core.LoadFile(dir+"/"+man.Shards[0].File, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(sdb, server.Config{ShardID: man.Shards[0].ID})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	for i := range man.Shards {
		man.Shards[i].Addr = ts.URL
	}
	coord, err := New(Config{Manifest: man})
	if err != nil {
		t.Fatal(err)
	}
	err = coord.Verify(context.Background())
	var deg *DegradedError
	if !errors.As(err, &deg) {
		t.Fatalf("verify = %v, want DegradedError", err)
	}
	if len(deg.Shards) != 1 || deg.Shards[0].Shard != man.Shards[1].ID ||
		!strings.Contains(deg.Shards[0].Error, "shard id") {
		t.Errorf("verify detail = %+v, want a shard-id mismatch on %s", deg.Shards, man.Shards[1].ID)
	}
}

func asAPIError(err error, target **client.APIError) bool {
	return errors.As(err, target)
}

// TestContractParity pins that a client error is the same client error on
// both surfaces: every refusal answers with the identical status, code and
// SKQL position from a standalone server and from a coordinator — never a
// retryable 503 — and the ones decided by validation cost no shard call.
func TestContractParity(t *testing.T) {
	db := buildSourceDB(t)
	f := startFleet(t, db, 2, 2)
	surfaces := map[string]http.Handler{
		"server":      server.New(db, server.Config{}).Handler(),
		"coordinator": f.coord.Handler(),
	}
	var oversized strings.Builder
	oversized.WriteString(`{"objects":[`)
	for i := 0; i <= front.MaxUpdateBatch; i++ {
		fmt.Fprintf(&oversized, `{"id":%d,"x":800,"y":800},`, i)
	}
	batch := strings.TrimSuffix(oversized.String(), ",") + `]}`

	cases := []struct {
		name, path, body string
		status           int
		line, col        int
		token            string
	}{
		{"bad sched", "/v1/knn", `{"x":800,"y":800,"k":3,"sched":7}`, 400, 0, 0, ""},
		{"bad option fraction", "/v1/knn", `{"x":800,"y":800,"k":3,"options":{"step2_accuracy":1.5}}`, 400, 0, 0, ""},
		{"off-terrain point", "/v1/knn", `{"x":-800000,"y":800,"k":3}`, 404, 0, 0, ""},
		{"bad range sched", "/v1/range", `{"x":800,"y":800,"radius":500,"sched":9}`, 400, 0, 0, ""},
		{"off-terrain statement", "/v1/query", `{"q":"SELECT k=3 NEAREST (-800000, 800)"}`, 404, 0, 0, ""},
		{"off-terrain distance", "/v1/distance", `{"x":-800000,"y":800,"x2":200,"y2":300}`, 404, 0, 0, ""},
		{"k=0", "/v1/knn", `{"x":800,"y":800,"k":0}`, 400, 0, 0, ""},
		{"radius 0", "/v1/range", `{"x":800,"y":800,"radius":0}`, 400, 0, 0, ""},
		{"negative radius", "/v1/range", `{"x":800,"y":800,"radius":-5}`, 400, 0, 0, ""},
		{"accuracy 2", "/v1/distance", `{"x":800,"y":800,"x2":200,"y2":300,"accuracy":2}`, 400, 0, 0, ""},
		{"unknown field", "/v1/knn", `{"x":800,"y":800,"k":3,"radius":5}`, 400, 0, 0, ""},
		{"trailing data", "/v1/knn", `{"x":800,"y":800,"k":3}{"again":1}`, 400, 0, 0, ""},
		{"oversized update batch", "/v1/objects", batch, 400, 0, 0, ""},
		{"parse error position", "/v1/query", `{"q":"SELECT k=5 NEAREST (800 800)"}`, 400, 1, 25, "800"},
		{"explain on /v1/query", "/v1/query", `{"q":"EXPLAIN RANGE (800, 800) WITHIN 5"}`, 400, 0, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code := map[int]string{400: api.CodeBadRequest, 404: api.CodeNotFound}[tc.status]
			for name, h := range surfaces {
				calls := f.coord.Stats().ShardCalls.Value()
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body)))
				var env api.ErrorEnvelope
				if err := json.Unmarshal(w.Body.Bytes(), &env); err != nil {
					t.Fatalf("%s: body is not an envelope: %v\n%s", name, err, w.Body.String())
				}
				e := env.Error
				if w.Code != tc.status || e.Code != code {
					t.Errorf("%s: %d %q, want %d %q\n%s", name, w.Code, e.Code, tc.status, code, w.Body.String())
				}
				if e.Line != tc.line || e.Col != tc.col || e.Token != tc.token {
					t.Errorf("%s: position %d:%d %q, want %d:%d %q", name, e.Line, e.Col, e.Token, tc.line, tc.col, tc.token)
				}
				if w.Header().Get("Retry-After") != "" {
					t.Errorf("%s: a client error carries Retry-After", name)
				}
				if delta := f.coord.Stats().ShardCalls.Value() - calls; tc.status == 400 && delta != 0 {
					t.Errorf("%s: a validation refusal cost %d shard call(s)", name, delta)
				}
			}
		})
	}
}
