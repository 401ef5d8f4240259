package shard

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/obs"
	"surfknn/internal/server"
	"surfknn/internal/server/api"
	"surfknn/internal/workload"
)

// TestFleetMatchesUnsharded is the differential oracle of the sharded
// k-NN path: on 1×1, 2×1 and 2×2 cuts, every coordinator k-NN answer must
// equal the unsharded MR3Ctx bit for bit — ids, order, bound bits — at the
// same epoch. Query points are seeded: on the tile edges, within one k-th
// bound of them, and anywhere; k runs from 1 to above a tile's object
// count; and the checks repeat after a cross-tile move and after a delete.
// The path counters must show both the settled and the resumed path (a 1×1
// fleet has no other tile, so it always settles).
func TestFleetMatchesUnsharded(t *testing.T) {
	for _, cut := range []struct{ nx, ny int }{{1, 1}, {2, 1}, {2, 2}} {
		t.Run(fmt.Sprintf("%dx%d", cut.nx, cut.ny), func(t *testing.T) {
			db := buildSourceDB(t)
			f := startFleet(t, db, cut.nx, cut.ny)
			ctx := context.Background()
			rng := rand.New(rand.NewSource(int64(43 + 10*cut.nx + cut.ny)))
			tiling := f.manifest.Tiling()
			ext := tiling.Extent
			inside := func(p geom.Vec2) geom.Vec2 {
				const m = 1e-6
				p.X = min(max(p.X, ext.MinX+m), ext.MaxX-m)
				p.Y = min(max(p.Y, ext.MinY+m), ext.MaxY-m)
				return p
			}
			most := 0
			for _, s := range f.manifest.Shards {
				most = max(most, s.Objects)
			}
			ks := []int{1, 2, 5, 10, most + 3}

			// Points on every tile edge (the outer boundary stands in on a
			// 1×1 cut) and anywhere.
			w, h := ext.Width()/float64(cut.nx), ext.Height()/float64(cut.ny)
			var edges []geom.Vec2
			for i := 0; i <= cut.nx; i++ {
				if cut.nx == 1 || (i > 0 && i < cut.nx) {
					for j := 0; j < 3; j++ {
						edges = append(edges, inside(geom.Vec2{X: ext.MinX + float64(i)*w, Y: ext.MinY + rng.Float64()*ext.Height()}))
					}
				}
			}
			for i := 0; i <= cut.ny; i++ {
				if cut.ny == 1 || (i > 0 && i < cut.ny) {
					for j := 0; j < 3; j++ {
						edges = append(edges, inside(geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + float64(i)*h}))
					}
				}
			}
			if cut.nx > 1 && cut.ny > 1 {
				edges = append(edges, geom.Vec2{X: ext.MinX + w, Y: ext.MinY + h}) // the tile corner
			}
			var anywhere []geom.Vec2
			for j := 0; j < 4; j++ {
				anywhere = append(anywhere, geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()})
			}

			direct := func(p geom.Vec2, k int) core.Result {
				t.Helper()
				q, err := db.SurfacePointAt(p)
				if err != nil {
					t.Fatal(err)
				}
				res, err := db.NewSession().MR3Ctx(ctx, q, k, core.S1, core.Options{})
				if err != nil {
					t.Fatalf("unsharded knn(%v, k=%d): %v", p, k, err)
				}
				return res
			}
			queries := 0
			same := func(stage string, p geom.Vec2, k int) core.Result {
				t.Helper()
				want := direct(p, k)
				stmt := fmt.Sprintf("SELECT k=%d NEAREST (%s, %s)", k, fmtCoord(p.X), fmtCoord(p.Y))
				got, epoch, err := runStatement(ctx, f.coord, stmt)
				if err != nil {
					t.Fatalf("%s: coordinator %s: %v", stage, stmt, err)
				}
				requireIdentical(t, stage+" "+stmt, got.Neighbors, wireNeighbors(want))
				if epoch != want.Epoch {
					t.Errorf("%s %s: merged epoch %d, unsharded %d", stage, stmt, epoch, want.Epoch)
				}
				queries++
				return want
			}
			check := func(stage string) {
				t.Helper()
				for _, p := range edges {
					for _, k := range ks {
						want := same(stage, p, k)
						// Within one k-th bound of the edge, on either side.
						r := float64(want.Neighbors[len(want.Neighbors)-1].UB)
						off := geom.Vec2{X: p.X + (2*rng.Float64()-1)*r, Y: p.Y + (2*rng.Float64()-1)*r}
						same(stage, inside(off), k)
					}
				}
				for _, p := range anywhere {
					for _, k := range ks {
						same(stage, p, k)
					}
				}
			}

			check("initial")

			// Move one object to the far corner's tile, and delete two.
			objs := db.Objects()
			moved := objs[0].ID
			to := geom.Vec2{X: ext.MaxX - 0.3*w, Y: ext.MaxY - 0.3*h}
			if _, err := f.coord.Upsert(ctx, api.UpsertRequest{Objects: []api.UpsertObject{{ID: &moved, X: to.X, Y: to.Y}}}); err != nil {
				t.Fatalf("move: %v", err)
			}
			pt, err := db.SurfacePointAt(to)
			if err != nil {
				t.Fatal(err)
			}
			db.ObjectStore().Upsert([]workload.Object{{ID: moved, Point: pt}})
			check("after cross-tile move")

			gone := []int64{objs[1].ID, objs[2].ID}
			if _, err := f.coord.Delete(ctx, api.DeleteRequest{IDs: gone}); err != nil {
				t.Fatalf("delete: %v", err)
			}
			db.ObjectStore().Delete(gone)
			check("after delete")

			st := f.coord.Stats()
			settled, resumed := st.KNNSettled.Value(), st.KNNResumed.Value()
			if settled+resumed != int64(queries) {
				t.Errorf("path counters %d settled + %d resumed, want %d queries", settled, resumed, queries)
			}
			if settled == 0 {
				t.Error("no query settled in one call")
			}
			if cut.nx*cut.ny == 1 && resumed != 0 {
				t.Errorf("a 1x1 fleet resumed %d queries, want none", resumed)
			}
			if cut.nx*cut.ny > 1 && resumed == 0 {
				t.Error("no query took the resumed path")
			}
			t.Logf("%d queries: %d settled, %d resumed", queries, settled, resumed)
		})
	}
}

func fmtCoord(v float64) string { return fmt.Sprintf("%.17g", v) }

// syncBuffer is an access-log sink the test may read while servers write.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestRequestIDReachesShardLogs follows one coordinator query by its
// X-Request-Id: the coordinator echoes the client's id and forwards it, so
// it appears on the query tile's access-log line for /v1/shard/knn and on
// the other tile's /v1/shard/knn2d line. A request without an id is given
// one, which travels the same way.
func TestRequestIDReachesShardLogs(t *testing.T) {
	db := buildSourceDB(t)
	logs := []*syncBuffer{{}, {}}
	f := startFleet(t, db, 2, 1, func(i int, cfg *server.Config) { cfg.AccessLog = logs[i] })
	ts := httptest.NewServer(f.coord.Handler())
	t.Cleanup(ts.Close)

	knn := func(id string) string {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/knn", strings.NewReader(`{"x":1300,"y":800,"k":3}`))
		if err != nil {
			t.Fatal(err)
		}
		if id != "" {
			req.Header.Set(obs.RequestIDHeader, id)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("knn: status %d", resp.StatusCode)
		}
		got := resp.Header.Get(obs.RequestIDHeader)
		if id != "" && got != id {
			t.Fatalf("coordinator echoed request id %q, sent %q", got, id)
		}
		if got == "" {
			t.Fatal("coordinator response carries no request id")
		}
		return got
	}
	// A shard writes its access-log line after its response has gone out,
	// so the line may trail the coordinator's answer briefly.
	logged := func(log *syncBuffer, path, id string) bool {
		needle := fmt.Sprintf(`"request_id":%q`, id)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			for _, line := range strings.Split(log.String(), "\n") {
				if strings.Contains(line, needle) && strings.Contains(line, `"path":"`+path+`"`) {
					return true
				}
			}
		}
		return false
	}
	// (1300, 800) lies in tile-1-0, the second shard.
	for _, sent := range []string{"fleet-query-43", ""} {
		id := knn(sent)
		if !logged(logs[1], "/v1/shard/knn", id) {
			t.Errorf("request id %q not on the query tile's /v1/shard/knn access-log line:\n%s", id, logs[1].String())
		}
		if !logged(logs[0], "/v1/shard/knn2d", id) {
			t.Errorf("request id %q not on the other tile's /v1/shard/knn2d access-log line:\n%s", id, logs[0].String())
		}
	}
}
