package shard

import (
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"surfknn/internal/core"
	"surfknn/internal/geom"
	"surfknn/internal/server/api"
	"surfknn/internal/server/client"
)

// TestCoordinatorQuery pins the SKQL front door over a sharded fleet: the
// same statement answers bit-identically to the unsharded engine, and
// EXPLAIN returns the distributed plan — scatter/rank steps annotated with
// the tiles actually touched and shard-reported costs.
func TestCoordinatorQuery(t *testing.T) {
	db := buildSourceDB(t)
	f := startFleet(t, db, 2, 1)
	ts := httptest.NewServer(f.coord.Handler())
	t.Cleanup(ts.Close)
	cli := client.New(ts.URL)
	ctx := context.Background()

	res, meta, err := cli.Query(ctx, api.QueryRequest{Q: "SELECT k=5 NEAREST (800, 800)"})
	if err != nil {
		t.Fatalf("query via coordinator: %v", err)
	}
	if res.Form != "select" || res.Algorithm != "mr3" {
		t.Fatalf("form/algorithm = %q/%q", res.Form, res.Algorithm)
	}
	q, err := db.SurfacePointAt(geom.Vec2{X: 800, Y: 800})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.NewSession().MR3Ctx(context.Background(), q, 5, core.S1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "skql knn", res.Neighbors, wireNeighbors(direct))
	if meta.Epoch != db.CurrentEpoch() {
		t.Errorf("X-Epoch %d, want %d", meta.Epoch, db.CurrentEpoch())
	}

	// EXPLAIN: the distributed plan, tiles annotated.
	exp, _, err := cli.Explain(ctx, api.ExplainRequest{Q: "EXPLAIN SELECT k=5 NEAREST (800, 800)"})
	if err != nil {
		t.Fatalf("explain via coordinator: %v", err)
	}
	if exp.Algorithm != "mr3" || exp.Plan.Op != "mr3" {
		t.Fatalf("explain algorithm/root = %q/%q, want mr3", exp.Algorithm, exp.Plan.Op)
	}
	if exp.Plan.Cost == nil || exp.Plan.Cost.Pages == 0 {
		t.Fatalf("root carries no actual cost: %+v", exp.Plan.Cost)
	}
	ops := map[string]api.PlanNode{}
	for _, ch := range exp.Plan.Children {
		ops[ch.Op] = ch
	}
	s1, ok := ops["scatter:knn2d"]
	if !ok || len(s1.Tiles) != 2 {
		t.Fatalf("scatter:knn2d tiles = %v, want both tiles", s1.Tiles)
	}
	r1, ok := ops["rank:rank-c1"]
	if !ok || len(r1.Tiles) != 1 {
		t.Fatalf("rank:rank-c1 tiles = %v, want exactly the query tile", r1.Tiles)
	}
	if r1.Cost == nil || r1.Cost.Pages == 0 {
		t.Errorf("rank:rank-c1 carries no shard cost: %+v", r1.Cost)
	}
	s3, ok := ops["scatter:range2d"]
	if !ok || len(s3.Tiles) == 0 {
		t.Fatalf("scatter:range2d tiles = %v, want the reachable tiles", s3.Tiles)
	}
	if !strings.Contains(exp.Text, "tiles=[") {
		t.Errorf("rendered text has no tile annotations:\n%s", exp.Text)
	}

	// Parse errors carry a position the caret diagnostic needs.
	_, _, err = cli.Query(ctx, api.QueryRequest{Q: "SELECT k=5 NEAREST (800"})
	var apiErr *client.APIError
	if !asAPIError(err, &apiErr) || apiErr.Line != 1 || apiErr.Col == 0 {
		t.Errorf("parse error = %v, want a positioned 400", err)
	}

	// SUBSCRIBE is per-server state: the coordinator refuses it, typed.
	_, _, err = cli.Query(ctx, api.QueryRequest{Q: "SUBSCRIBE k=3 FOLLOW (800, 800)"})
	if !asAPIError(err, &apiErr) || apiErr.Code != api.CodeBadRequest {
		t.Errorf("subscribe error = %v, want 400 bad_request", err)
	}
}

// TestCoordinatorQueryRange pins the RANGE form and its scatter plan.
func TestCoordinatorQueryRange(t *testing.T) {
	db := buildSourceDB(t)
	f := startFleet(t, db, 2, 1)
	ts := httptest.NewServer(f.coord.Handler())
	t.Cleanup(ts.Close)
	cli := client.New(ts.URL)
	ctx := context.Background()

	res, _, err := cli.Query(ctx, api.QueryRequest{Q: "RANGE (800, 800) WITHIN 500"})
	if err != nil {
		t.Fatalf("range via coordinator: %v", err)
	}
	q, err := db.SurfacePointAt(geom.Vec2{X: 800, Y: 800})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := db.NewSession().SurfaceRangeCtx(context.Background(), q, 500, core.S1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "skql range", res.Neighbors, wireNeighbors(direct))

	exp, _, err := cli.Explain(ctx, api.ExplainRequest{Q: "RANGE (800, 800) WITHIN 500"})
	if err != nil {
		t.Fatal(err)
	}
	if exp.Plan.Op != "range" || len(exp.Plan.Children) != 1 || exp.Plan.Children[0].Op != "scatter:range" {
		t.Fatalf("range plan = %+v", exp.Plan)
	}
	if len(exp.Plan.Children[0].Tiles) == 0 {
		t.Error("scatter:range has no tile annotation")
	}
}
