package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

// pinnedSnapshotSHA256 is the SHA-256 of the fixture snapshot below as a
// single-threaded setup wrote it. The setup stages run concurrently, and no
// byte they produce may depend on that or on the number of cores.
const pinnedSnapshotSHA256 = "69d4250c2b7da3c2b553275b00b696b58699f5adfecff249f6d3349060257180"

// pinFixture builds the pinned fixture (BH 32², 100 m cells, terrain seed
// 2006, 60 objects) with GOMAXPROCS set to procs for the whole build, and
// returns its SaveWithObjects bytes.
func pinFixture(t *testing.T, procs int) []byte {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m := mesh.FromGrid(dem.Synthesize(dem.BH, 32, 100, 2006))
	db, err := BuildTerrainDB(m, Config{})
	if err != nil {
		t.Fatal(err)
	}
	objs, err := workload.RandomObjects(m, db.Loc, 60, 7)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.SaveWithObjects(&buf, objs, 0); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSnapshotBytesPinned(t *testing.T) {
	for _, procs := range []int{1, runtime.GOMAXPROCS(0)} {
		snap := pinFixture(t, procs)
		sum := sha256.Sum256(snap)
		if got := hex.EncodeToString(sum[:]); got != pinnedSnapshotSHA256 {
			t.Fatalf("GOMAXPROCS=%d: snapshot SHA-256 %s, pinned %s", procs, got, pinnedSnapshotSHA256)
		}
		// Load → Save reproduces the file byte for byte: the loaded
		// structures are the saved ones, and the assembly that rebuilds the
		// paged stores on load writes nothing back into them.
		db, err := Load(bytes.NewReader(snap), Config{})
		if err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := db.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), snap) {
			t.Fatalf("GOMAXPROCS=%d: Load → Save changed the snapshot (%d → %d bytes)", procs, len(snap), again.Len())
		}
	}
}
