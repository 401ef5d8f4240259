package multires_test

import (
	"bytes"
	"testing"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/mesh"
	"surfknn/internal/multires"
)

// TestAncestorTablesMatchAncestorAt holds every materialised level's leaf
// ancestor table to Tree.AncestorAt, leaf by leaf, on a rugged, a smooth and
// a flat terrain, both as core's assembly builds the database and as a
// snapshot of it loads: the table is derived, not stored, so both paths
// must derive it alike.
func TestAncestorTablesMatchAncestorAt(t *testing.T) {
	for _, f := range []struct {
		name string
		m    *mesh.Mesh
	}{
		{"BH", mesh.FromGrid(dem.Synthesize(dem.BH, 16, 10, 77))},
		{"EP", mesh.FromGrid(dem.Synthesize(dem.EP, 16, 10, 78))},
		{"FLAT", mesh.FromGrid(dem.NewGrid(17, 17, 10))},
	} {
		built, err := core.BuildTerrainDB(f.m, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var snap bytes.Buffer
		if err := built.Save(&snap); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.Load(&snap, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, db := range []struct {
			how string
			tr  *multires.Tree
		}{{"built", built.Tree}, {"loaded", loaded.Tree}} {
			times, tables := multires.LevelAncestors(db.tr)
			if len(times) == 0 {
				t.Fatalf("%s %s: no materialised level", f.name, db.how)
			}
			for i, tm := range times {
				if len(tables[i]) != db.tr.NumLeaves {
					t.Fatalf("%s %s time %d: table of %d entries for %d leaves", f.name, db.how, tm, len(tables[i]), db.tr.NumLeaves)
				}
				for leaf, got := range tables[i] {
					if want := db.tr.AncestorAt(multires.NodeID(leaf), tm); got != want {
						t.Fatalf("%s %s time %d: leaf %d → %d, AncestorAt %d", f.name, db.how, tm, leaf, got, want)
					}
				}
			}
		}
	}
}
