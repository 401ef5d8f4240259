package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/index"
	"surfknn/internal/multires"
	"surfknn/internal/workload"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 40, 1212)
	q := queryPoints(t, db, 1, 64)[0]
	want, err := db.NewSession().MR3Ctx(bg, q, 5, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}

	// Structural equality.
	if db2.Mesh.NumVerts() != db.Mesh.NumVerts() || db2.Mesh.NumFaces() != db.Mesh.NumFaces() {
		t.Fatalf("mesh mismatch: %v vs %v", db2.Mesh, db.Mesh)
	}
	if db2.Tree.NumLeaves != db.Tree.NumLeaves || len(db2.Tree.Edges) != len(db.Tree.Edges) {
		t.Fatal("tree mismatch")
	}
	if db2.MSDN.NumLines() != db.MSDN.NumLines() || db2.MSDN.NumPoints() != db.MSDN.NumPoints() {
		t.Fatal("MSDN mismatch")
	}
	if len(db2.Objects()) != len(db.Objects()) {
		t.Fatal("objects mismatch")
	}

	// Identical query results (the loaded database is behaviourally equal).
	q2, err := db2.SurfacePointAt(q.XY())
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.NewSession().MR3Ctx(bg, q2, 5, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("neighbour count %d vs %d", len(got.Neighbors), len(want.Neighbors))
	}
	for i := range want.Neighbors {
		if got.Neighbors[i].Object.ID != want.Neighbors[i].Object.ID {
			t.Errorf("neighbour %d: %d vs %d", i,
				got.Neighbors[i].Object.ID, want.Neighbors[i].Object.ID)
		}
		if got.Neighbors[i].UB != want.Neighbors[i].UB {
			t.Errorf("neighbour %d UB: %v vs %v", i, got.Neighbors[i].UB, want.Neighbors[i].UB)
		}
	}
	if got.Metrics().Pages != want.Metrics().Pages {
		t.Errorf("page count changed after reload: %d vs %d", got.Metrics().Pages, want.Metrics().Pages)
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := buildDB(t, dem.EP, 8, 10, 1313)
	path := filepath.Join(t.TempDir(), "terrain.skdb")
	if err := db.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadFile(path, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Mesh.NumVerts() != db.Mesh.NumVerts() {
		t.Error("mesh mismatch after file round trip")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.skdb"), Config{}); err == nil {
		t.Error("missing file should error")
	}
}

// goldenV3 is a genuine v3 byte stream (no flat-buffer tail): the 15,772-byte
// file the last v3 writer (commit 9498584) saved for buildDB(t, dem.BH, 4,
// 40, 1212) — 25 vertices, 32 faces, and 40 objects, just past one R-tree
// leaf, so loading it exercises both v3 rebuilds (Steiner subdivision and
// the multi-leaf STR re-pack). The writer is gone; the reader is pinned
// against this file.
const goldenV3 = "testdata/snapshot_v3.skdb"

// loadGoldenV3 loads the golden and returns, beside it, the database the
// file was saved from, rebuilt fresh.
func loadGoldenV3(t *testing.T) (fresh, loaded *TerrainDB) {
	t.Helper()
	raw, err := os.ReadFile(goldenV3)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(raw[:8]); got != "SKNNDB03" {
		t.Fatalf("v3 magic = %q", got)
	}
	loaded, err = Load(bytes.NewReader(raw), Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.FormatVersion(); got != 3 {
		t.Fatalf("FormatVersion = %d, want 3", got)
	}
	return buildDB(t, dem.BH, 4, 40, 1212), loaded
}

// TestSnapshotV3BackwardCompat pins the v3 reader: a genuine v3 byte stream
// still loads, rebuilding the pathnet and the Dxy pack, and answers queries
// exactly as the database that saved it.
func TestSnapshotV3BackwardCompat(t *testing.T) {
	db, db2 := loadGoldenV3(t)
	q := queryPoints(t, db, 1, 64)[0]
	want, err := db.NewSession().MR3Ctx(bg, q, 5, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := db2.SurfacePointAt(q.XY())
	if err != nil {
		t.Fatal(err)
	}
	got, err := db2.NewSession().MR3Ctx(bg, q2, 5, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "v3", got, want)
}

// TestSnapshotV4Equivalence is the round-trip equivalence guarantee behind
// the flat-buffer tail: restoring from the v4 flat buffers (a straight read)
// and restoring from v3 (Steiner rebuild + STR re-pack) yield databases
// that answer MR3, EA and range queries bit-identically, page counts
// included.
func TestSnapshotV4Equivalence(t *testing.T) {
	db, db3 := loadGoldenV3(t)
	qs := queryPoints(t, db, 3, 77)

	var b4 bytes.Buffer
	if err := db.Save(&b4); err != nil {
		t.Fatal(err)
	}
	if got := string(b4.Bytes()[:8]); got != "SKNNDB04" {
		t.Fatalf("v4 magic = %q", got)
	}
	db4, err := Load(&b4, Config{})
	if err != nil {
		t.Fatal(err)
	}

	for qi, q := range qs {
		q3, err := db3.SurfacePointAt(q.XY())
		if err != nil {
			t.Fatal(err)
		}
		q4, err := db4.SurfacePointAt(q.XY())
		if err != nil {
			t.Fatal(err)
		}
		want, err := db3.NewSession().MR3Ctx(bg, q3, 5, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := db4.NewSession().MR3Ctx(bg, q4, 5, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, fmt.Sprintf("q%d MR3", qi), got, want)

		want, err = db3.NewSession().EACtx(bg, q3, 5)
		if err != nil {
			t.Fatal(err)
		}
		got, err = db4.NewSession().EACtx(bg, q4, 5)
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, fmt.Sprintf("q%d EA", qi), got, want)

		want, err = db3.NewSession().SurfaceRangeCtx(bg, q3, 250.0, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err = db4.NewSession().SurfaceRangeCtx(bg, q4, 250.0, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		compareResults(t, fmt.Sprintf("q%d range", qi), got, want)
	}
}

// compareResults asserts bit-identical neighbour sets (IDs, LB/UB bit
// patterns) and identical page counts between two query results.
func compareResults(t *testing.T, label string, got, want Result) {
	t.Helper()
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("%s: neighbour count %d vs %d", label, len(got.Neighbors), len(want.Neighbors))
	}
	for i := range want.Neighbors {
		g, w := got.Neighbors[i], want.Neighbors[i]
		if g.Object.ID != w.Object.ID {
			t.Errorf("%s: neighbour %d: %d vs %d", label, i, g.Object.ID, w.Object.ID)
		}
		if math.Float64bits(g.LB) != math.Float64bits(w.LB) ||
			math.Float64bits(g.UB) != math.Float64bits(w.UB) {
			t.Errorf("%s: neighbour %d bounds (%v,%v) vs (%v,%v)", label, i, g.LB, g.UB, w.LB, w.UB)
		}
	}
	if got.Metrics().Pages != want.Metrics().Pages {
		t.Errorf("%s: page count %d vs %d", label, got.Metrics().Pages, want.Metrics().Pages)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a database")), Config{}); err == nil {
		t.Error("garbage should fail")
	}
	// Valid magic, truncated body.
	var buf bytes.Buffer
	buf.Write(dbMagic[:])
	buf.Write([]byte{1, 2, 3})
	if _, err := Load(&buf, Config{}); err == nil {
		t.Error("truncated snapshot should fail")
	}
}

func TestLoadRejectsBitFlips(t *testing.T) {
	db := buildDB(t, dem.BH, 8, 40, 99)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit inside float payload (vertex coordinates) and inside the
	// footer itself: structural validation cannot see either, so this pins
	// the CRC-32C check.
	for _, off := range []int{16, 100, 1000, len(raw) - 5, len(raw) - 2} {
		bad := bytes.Clone(raw)
		bad[off] ^= 0x10
		_, err := Load(bytes.NewReader(bad), Config{})
		if err == nil {
			t.Fatalf("bit flip at offset %d loaded silently", off)
		}
		if !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("bit flip at offset %d: err = %v, want ErrBadSnapshot", off, err)
		}
	}
	// The pristine bytes still load.
	if _, err := Load(bytes.NewReader(raw), Config{}); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
}

// forgedMSDNSnapshots saves db with its MSDN corrupted in ways the checksum
// cannot see (Save stamps a valid CRC over whatever it is given): a line
// whose points run backwards, and a line with a repeated rank. The MSDN is
// restored before returning.
func forgedMSDNSnapshots(tb testing.TB, db *TerrainDB) map[string][]byte {
	tb.Helper()
	cl := db.MSDN.XLines[0]
	save := func() []byte {
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	out := make(map[string][]byte)
	mid := len(cl.Pts) / 2
	cl.Pts[mid], cl.Pts[mid+1] = cl.Pts[mid+1], cl.Pts[mid]
	out["unsorted points"] = save()
	cl.Pts[mid], cl.Pts[mid+1] = cl.Pts[mid+1], cl.Pts[mid]
	r := cl.Rank[mid]
	cl.Rank[mid] = cl.Rank[mid+1]
	out["duplicate rank"] = save()
	cl.Rank[mid] = r
	return out
}

// TestLoadRejectsForgedMSDN pins MSDN.Validate on the load path: the lower
// bound binary-searches each line's segment bounds, so an unsorted line
// would not crash — it would silently return an unsound bound.
func TestLoadRejectsForgedMSDN(t *testing.T) {
	db := buildDB(t, dem.BH, 8, 10, 99)
	if err := db.MSDN.Validate(); err != nil {
		t.Fatalf("freshly built MSDN fails validation: %v", err)
	}
	for name, raw := range forgedMSDNSnapshots(t, db) {
		if _, err := Load(bytes.NewReader(raw), Config{}); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, Config{}); err != nil {
		t.Fatalf("restored snapshot rejected: %v", err)
	}
}

// forgedTreeSnapshots saves db with a DDM edge record whose endpoint is no
// node of the tree. Save stamps a valid CRC over each.
func forgedTreeSnapshots(tb testing.TB, db *TerrainDB) map[string][]byte {
	tb.Helper()
	out := make(map[string][]byte)
	e := &db.Tree.Edges[len(db.Tree.Edges)/2]
	for name, v := range map[string]multires.NodeID{
		"edge endpoint past the node table": multires.NodeID(len(db.Tree.Nodes)),
		"negative edge endpoint":            -3,
	} {
		u, w := e.U, e.W
		for _, end := range []*multires.NodeID{&e.U, &e.W} {
			*end = v
			var buf bytes.Buffer
			if err := db.Save(&buf); err != nil {
				tb.Fatal(err)
			}
			out[fmt.Sprintf("%s (%d,%d)", name, e.U, e.W)] = buf.Bytes()
			e.U, e.W = u, w
		}
	}
	return out
}

// TestLoadRejectsForgedTree pins Tree.Validate on the load path, ahead of
// assembly: the level-network builder (multires.Tree.Materialize) counts and
// fills its tables indexing by EdgeRec.U and EdgeRec.W unchecked, so an
// endpoint outside the node table must be refused as a bad snapshot, not met
// as an index panic.
func TestLoadRejectsForgedTree(t *testing.T) {
	db := buildDB(t, dem.BH, 8, 10, 99)
	for name, raw := range forgedTreeSnapshots(t, db) {
		if _, err := Load(bytes.NewReader(raw), Config{}); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf, Config{}); err != nil {
		t.Fatalf("restored snapshot rejected: %v", err)
	}
}

// forgedIndexSnapshots saves db with its Dxy index replaced by flat buffers
// that stay inside their slabs (all the loader used to check) yet are no
// tree: the searches would recurse, or grow the k-NN heap, without end. Save
// stamps a valid CRC over each, so only the layout check can refuse them.
func forgedIndexSnapshots(tb testing.TB, db *TerrainDB) map[string][]byte {
	tb.Helper()
	objs, epoch, dxy := db.snapshotObjects()
	box := dxy.MBR[0]
	out := make(map[string][]byte)
	for name, f := range map[string]index.Flat{
		"one-node cycle": {
			Leaf: []bool{false}, MBR: []geom.MBR{box}, Start: []int32{0}, Count: []int32{1},
		},
		"two-node back-edge": {
			Leaf: []bool{false, false}, MBR: []geom.MBR{box, box}, Start: []int32{1, 0}, Count: []int32{1, 1},
		},
		"leaf range past the item slab": {
			Leaf: []bool{true}, MBR: []geom.MBR{box}, Start: []int32{0}, Count: []int32{int32(len(objs)) + 1},
		},
	} {
		f.Items = dxy.Items
		var buf bytes.Buffer
		if err := db.save(&buf, objs, epoch, f); err != nil {
			tb.Fatal(err)
		}
		out[name] = buf.Bytes()
	}
	return out
}

// TestLoadRejectsForgedIndex pins index.FromFlat on the load path: a
// CRC-valid snapshot whose R-tree nodes point at themselves or an ancestor
// used to load fine and then kill the first query's stack.
func TestLoadRejectsForgedIndex(t *testing.T) {
	db := buildDB(t, dem.BH, 8, 10, 99)
	for name, raw := range forgedIndexSnapshots(t, db) {
		if _, err := Load(bytes.NewReader(raw), Config{}); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}
}

func TestLoadWithoutObjects(t *testing.T) {
	// A database saved before SetObjects loads fine and reports no objects.
	g := dem.Synthesize(dem.EP, 8, 10, 5)
	m := meshFromGrid(g)
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(db2.Objects()) != 0 {
		t.Errorf("expected no objects, got %d", len(db2.Objects()))
	}
	if db2.ObjectStore() != nil {
		t.Error("object store should be nil without objects")
	}
}

// TestNegativePoolPagesIsAnError: a negative buffer-pool size is a returned
// error from both constructors, not a panic; zero still means the default.
func TestNegativePoolPagesIsAnError(t *testing.T) {
	m := meshFromGrid(dem.Synthesize(dem.EP, 8, 10, 5))
	if _, err := BuildTerrainDB(m, Config{PoolPages: -1}); err == nil {
		t.Error("BuildTerrainDB with PoolPages -1: no error")
	}
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), Config{PoolPages: -7}); err == nil {
		t.Error("Load with PoolPages -7: no error")
	}
	if _, err := Load(&buf, Config{}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotEpochRoundTrip(t *testing.T) {
	// A snapshot taken after updates resumes at the same epoch with the
	// surviving object set.
	g := dem.Synthesize(dem.EP, 8, 10, 6)
	m := meshFromGrid(g)
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := workload.RandomObjects(m, db.Loc, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	db.SetObjects(objs)
	store := db.ObjectStore()
	store.Upsert([]workload.Object{objs[0]}) // epoch 1 (moves nothing, same point)
	store.Delete([]int64{objs[1].ID})        // epoch 2
	if got := db.CurrentEpoch(); got != 2 {
		t.Fatalf("pre-save epoch = %d, want 2", got)
	}

	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := Load(&buf, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.CurrentEpoch(); got != 2 {
		t.Errorf("restored epoch = %d, want 2", got)
	}
	if got, want := len(db2.Objects()), len(db.Objects()); got != want {
		t.Fatalf("restored %d objects, want %d", got, want)
	}
	if _, ok := db2.Object(objs[1].ID); ok {
		t.Error("deleted object resurrected by snapshot round-trip")
	}
	// The restored store continues the sequence, not restarts it.
	if e := db2.ObjectStore().Upsert([]workload.Object{objs[2]}); e != 3 {
		t.Errorf("post-restore update produced epoch %d, want 3", e)
	}
}
