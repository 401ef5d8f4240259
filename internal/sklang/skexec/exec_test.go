package skexec

import (
	"errors"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/sklang"
	"surfknn/internal/workload"
)

// testDB builds the shared test terrain once: the same EP 17×17 grid with
// 30 objects the server tests use, so cost numbers line up across suites.
var (
	dbOnce sync.Once
	testdb *core.TerrainDB
)

func getDB(t testing.TB) *core.TerrainDB {
	t.Helper()
	dbOnce.Do(func() {
		g := dem.Synthesize(dem.EP, 16, 100, 2006)
		m := mesh.FromGrid(g)
		db, err := core.BuildTerrainDB(m, core.Config{})
		if err != nil {
			panic(err)
		}
		objs, err := workload.RandomObjects(m, db.Loc, 30, 2007)
		if err != nil {
			panic(err)
		}
		db.SetObjects(objs)
		testdb = db
	})
	return testdb
}

func catalogOf(db *core.TerrainDB) sklang.Catalog {
	return sklang.Catalog{
		Objects: len(db.Objects()),
		Faces:   db.Mesh.NumFaces(),
		Area:    db.Mesh.Extent().Area(),
	}
}

func run(t *testing.T, db *core.TerrainDB, q string) *Outcome {
	t.Helper()
	plan, err := sklang.Compile(q, catalogOf(db))
	if err != nil {
		t.Fatalf("Compile(%q): %v", q, err)
	}
	sess := db.NewSession()
	out, err := Run(nil, sess, plan)
	if err != nil {
		t.Fatalf("Run(%q): %v", q, err)
	}
	return out
}

// copyNeighbors detaches a result from session scratch.
func copyNeighbors(ns []core.Neighbor) []core.Neighbor {
	out := make([]core.Neighbor, len(ns))
	copy(out, ns)
	return out
}

// sameNeighbors asserts bit-identity: IDs in order, and LB/UB float64 bits.
func sameNeighbors(t *testing.T, label string, got, want []core.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbours, want %d", label, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Object.ID != w.Object.ID ||
			math.Float64bits(g.LB) != math.Float64bits(w.LB) ||
			math.Float64bits(g.UB) != math.Float64bits(w.UB) {
			t.Fatalf("%s: neighbour %d differs: got id=%d lb=%x ub=%x, want id=%d lb=%x ub=%x",
				label, i, g.Object.ID, math.Float64bits(g.LB), math.Float64bits(g.UB),
				w.Object.ID, math.Float64bits(w.LB), math.Float64bits(w.UB))
		}
	}
}

func surfacePoint(t *testing.T, db *core.TerrainDB, x, y float64) mesh.SurfacePoint {
	t.Helper()
	q, err := db.SurfacePointAt(geom.Vec2{X: x, Y: y})
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestEquivalenceMR3 pins that the SELECT form executes bit-identically to
// the direct MR3 call it compiles to: same IDs, same bound bits, same page
// count.
func TestEquivalenceMR3(t *testing.T) {
	db := getDB(t)
	out := run(t, db, "SELECT k=5 NEAREST (800, 800) USING s=2")
	got := copyNeighbors(out.Result.Neighbors)
	gotPages := out.Result.Cost.Pages()

	q := surfacePoint(t, db, 800, 800)
	want, err := db.NewSession().MR3Ctx(nil, q, 5, core.S2, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, "mr3", got, want.Neighbors)
	if gotPages != want.Cost.Pages() {
		t.Errorf("pages: plan %d, direct %d", gotPages, want.Cost.Pages())
	}
}

// TestEquivalenceMR3Accuracy pins the ACCURACY push-down: the clause is
// exactly WithStep2Accuracy, nothing else.
func TestEquivalenceMR3Accuracy(t *testing.T) {
	db := getDB(t)
	out := run(t, db, "SELECT k=5 NEAREST (800, 800) ACCURACY 0.5")
	got := copyNeighbors(out.Result.Neighbors)
	gotPages := out.Result.Cost.Pages()

	q := surfacePoint(t, db, 800, 800)
	want, err := db.NewSession().MR3Ctx(nil, q, 5, core.S1, core.NewOptions(core.WithStep2Accuracy(0.5)))
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, "mr3+accuracy", got, want.Neighbors)
	if gotPages != want.Cost.Pages() {
		t.Errorf("pages: plan %d, direct %d", gotPages, want.Cost.Pages())
	}
}

// TestEquivalenceEA pins that ACCURACY 1 selects EA, bit-identical to EACtx.
func TestEquivalenceEA(t *testing.T) {
	db := getDB(t)
	out := run(t, db, "SELECT k=5 NEAREST (800, 800) ACCURACY 1")
	if out.Plan.Algo != sklang.AlgoEA {
		t.Fatalf("algo = %s, want ea", out.Plan.Algo)
	}
	got := copyNeighbors(out.Result.Neighbors)
	gotPages := out.Result.Cost.Pages()

	q := surfacePoint(t, db, 800, 800)
	want, err := db.NewSession().EACtx(nil, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, "ea", got, want.Neighbors)
	if gotPages != want.Cost.Pages() {
		t.Errorf("pages: plan %d, direct %d", gotPages, want.Cost.Pages())
	}
}

// TestEquivalenceRange pins both range spellings against SurfaceRangeCtx.
func TestEquivalenceRange(t *testing.T) {
	db := getDB(t)
	q := surfacePoint(t, db, 800, 800)
	want, err := db.NewSession().SurfaceRangeCtx(nil, q, 500, core.S1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantNs := copyNeighbors(want.Neighbors)
	for _, spelling := range []string{"RANGE (800, 800) WITHIN 500", "SELECT (800, 800) WITHIN 500"} {
		out := run(t, db, spelling)
		if out.Plan.Algo != sklang.AlgoRange {
			t.Fatalf("%q: algo = %s, want range", spelling, out.Plan.Algo)
		}
		sameNeighbors(t, spelling, out.Result.Neighbors, wantNs)
		if out.Result.Cost.Pages() != want.Cost.Pages() {
			t.Errorf("%q: pages %d, direct %d", spelling, out.Result.Cost.Pages(), want.Cost.Pages())
		}
	}
}

// TestEquivalenceDistance pins the DISTANCE form against
// DistanceWithAccuracyCtx: identical bound bits and iteration count.
func TestEquivalenceDistance(t *testing.T) {
	db := getDB(t)
	out := run(t, db, "DISTANCE (100, 100) TO (1400, 1400) ACCURACY 0.9")
	a := surfacePoint(t, db, 100, 100)
	b := surfacePoint(t, db, 1400, 1400)
	want, _, err := db.NewSession().DistanceWithAccuracyCtx(nil, a, b, 0.9, core.S1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(out.Distance.LB) != math.Float64bits(want.LB) ||
		math.Float64bits(out.Distance.UB) != math.Float64bits(want.UB) ||
		out.Distance.Iterations != want.Iterations {
		t.Errorf("distance differs: got %+v, want %+v", out.Distance, want)
	}
	if out.Result.Cost.Pages() == 0 {
		t.Error("distance plan reported no page cost")
	}
}

// TestEquivalenceSubscribe pins the SUBSCRIBE form's one-shot evaluation
// against MR3SafeCtx (which is itself pinned bit-identical to MR3Ctx).
func TestEquivalenceSubscribe(t *testing.T) {
	db := getDB(t)
	out := run(t, db, "SUBSCRIBE k=5 FOLLOW (800, 800)")
	if out.Plan.Algo != sklang.AlgoContinuous {
		t.Fatalf("algo = %s, want continuous", out.Plan.Algo)
	}
	got := copyNeighbors(out.Result.Neighbors)

	q := surfacePoint(t, db, 800, 800)
	want, sr, err := db.NewSession().MR3SafeCtx(nil, q, 5, core.S1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sameNeighbors(t, "subscribe", got, want.Neighbors)
	if math.Float64bits(out.Safe.Radius) != math.Float64bits(sr.Radius) {
		t.Errorf("safe radius: got %x, want %x", math.Float64bits(out.Safe.Radius), math.Float64bits(sr.Radius))
	}
}

// TestFilterSubsequence pins the WITHIN post-filter semantics: the
// filtered result is the exact subsequence of the unfiltered one with
// ub ≤ radius — the scan itself is untouched.
func TestFilterSubsequence(t *testing.T) {
	db := getDB(t)
	full := run(t, db, "SELECT k=10 NEAREST (800, 800)")
	fullNs := copyNeighbors(full.Result.Neighbors)
	radius := (fullNs[4].UB + fullNs[5].UB) / 2 // split the result set

	out := run(t, db, "SELECT k=10 NEAREST (800, 800) WITHIN "+trim(radius))
	var want []core.Neighbor
	for _, n := range fullNs {
		if n.UB <= radius {
			want = append(want, n)
		}
	}
	sameNeighbors(t, "filter", out.Result.Neighbors, want)
	if out.Result.Cost.Pages() != full.Result.Cost.Pages() {
		t.Errorf("filter changed the scan: %d pages vs %d", out.Result.Cost.Pages(), full.Result.Cost.Pages())
	}
}

func trim(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// TestAnnotate pins that execution fills every planned phase leaf with the
// engine's actual numbers and the root with the totals.
func TestAnnotate(t *testing.T) {
	db := getDB(t)
	out := run(t, db, "SELECT k=5 NEAREST (800, 800)")
	root := out.Plan.Root
	if root.Cost == nil || root.Cost.Pages != out.Result.Cost.Pages() {
		t.Fatalf("root cost not annotated: %+v", root.Cost)
	}
	phases := 0
	for _, ch := range root.Children {
		if !strings.HasPrefix(ch.Op, "phase:") {
			continue
		}
		phases++
		if ch.Phase == nil {
			t.Errorf("phase leaf %s not annotated", ch.Op)
			continue
		}
		if ch.Phase.Pages == 0 && ch.Phase.WallUs == 0 && ch.Phase.Candidates == 0 {
			t.Errorf("phase leaf %s annotated with all-zero actuals", ch.Op)
		}
	}
	if phases != 4 {
		t.Errorf("annotated %d phase leaves, want 4", phases)
	}
	// Continuous plans annotate the inner mr3 node.
	sub := run(t, db, "SUBSCRIBE k=5 FOLLOW (800, 800)")
	inner := sub.Plan.Root.FindChild("mr3")
	if inner == nil || inner.Cost == nil || sub.Plan.Root.Cost == nil {
		t.Fatalf("continuous plan not annotated: %+v", sub.Plan.Root)
	}
}

// TestSchedStepsPinned keeps the planner's engine-free schedule-depth
// table in sync with the real schedules.
func TestSchedStepsPinned(t *testing.T) {
	for n, sched := range map[int]core.Schedule{1: core.S1, 2: core.S2, 3: core.S3} {
		if got := sklang.SchedSteps(n); got != sched.Steps() {
			t.Errorf("sklang.SchedSteps(%d) = %d, want %d", n, got, sched.Steps())
		}
	}
}

// TestOffTerrain pins the typed off-terrain error the serving layers map
// to 404.
func TestOffTerrain(t *testing.T) {
	db := getDB(t)
	plan, err := sklang.Compile("SELECT k=5 NEAREST (-1e6, -1e6)", catalogOf(db))
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(nil, db.NewSession(), plan)
	if err == nil {
		t.Fatal("no error for an off-terrain point")
	}
	if !errors.Is(err, ErrOffTerrain) {
		t.Fatalf("error %v does not wrap ErrOffTerrain", err)
	}
}
