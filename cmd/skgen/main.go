// Command skgen synthesises terrain datasets. The paper builds its BH
// (Bearhead Mountain) and EP (Eagle Peak) surfaces from USGS DEM files;
// skgen generates the synthetic stand-ins used throughout this repository
// and writes them in the library's .sdem format.
//
// Usage:
//
//	skgen -preset BH -size 256 -cell 50 -seed 2006 -o bh.sdem
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/mesh"
	"surfknn/internal/shard"
	"surfknn/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("skgen: ")
	var (
		preset = flag.String("preset", "BH", "terrain preset: BH (rugged) or EP (smooth)")
		size   = flag.Int("size", 128, "grid size (power of two; the grid has (size+1)^2 samples)")
		cell   = flag.Float64("cell", 100, "sample spacing in metres")
		seed   = flag.Int64("seed", 2006, "random seed")
		out    = flag.String("o", "", "output file (default <preset>.sdem)")
		info   = flag.Bool("info", false, "print terrain statistics after generating")
		dbOut  = flag.String("db", "", "also build and snapshot a query-ready TerrainDB (objects included) to this file, for skserve")
		dbObjs = flag.Int("db-objects", 150, "objects placed in the -db snapshot")
		tiles  = flag.String("tiles", "", `also cut the -db snapshot into an NxM shard grid (e.g. "2x2"): per-tile snapshots plus a manifest, for skcoord`)
	)
	flag.Parse()
	if *tiles != "" && *dbOut == "" {
		log.Fatal("-tiles requires -db (the tiler cuts the built snapshot)")
	}

	var p dem.Preset
	switch strings.ToUpper(*preset) {
	case "BH":
		p = dem.BH
	case "EP":
		p = dem.EP
	default:
		log.Fatalf("unknown preset %q (want BH or EP)", *preset)
	}
	path := *out
	if path == "" {
		path = strings.ToLower(p.Name) + ".sdem"
	}

	g := dem.Synthesize(p, *size, *cell, *seed)
	if err := g.WriteFile(path); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s: %dx%d samples (%.0f m spacing, %.1f km², %s preset)\n",
		path, g.Cols, g.Rows, g.CellSize, g.AreaKm2(), p.Name)
	if *info {
		lo, hi := g.MinMaxElev()
		m := mesh.FromGrid(g)
		fmt.Printf("elevation range: %.1f – %.1f m\n", lo, hi)
		fmt.Printf("roughness: %.4f\n", g.Roughness())
		fmt.Printf("mesh: %d vertices, %d faces, %d edges, avg edge %.1f m\n",
			m.NumVerts(), m.NumFaces(), len(m.Edges()), m.AverageEdgeLength())
		fmt.Printf("surface area / planar area: %.3f\n", m.SurfaceArea()/m.Extent().Area())
	}
	if *dbOut != "" {
		// The snapshot carries the mesh, DDM tree, MSDN and objects —
		// everything skserve needs to start answering queries without
		// redoing the offline preprocessing. Object placement uses seed+1,
		// the same convention as skquery's generated workloads.
		m := mesh.FromGrid(g)
		db, err := core.BuildTerrainDB(m, core.Config{})
		if err != nil {
			log.Fatal(err)
		}
		objs, err := workload.RandomObjects(m, db.Loc, *dbObjs, *seed+1)
		if err != nil {
			log.Fatal(err)
		}
		db.SetObjects(objs)
		man, manPath, err := saveSnapshots(db, *dbOut, *tiles)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: TerrainDB snapshot with %d objects at epoch %d\n",
			*dbOut, len(objs), db.CurrentEpoch())
		if man != nil {
			for _, s := range man.Shards {
				fmt.Printf("wrote %s: shard %s with %d objects\n",
					filepath.Join(filepath.Dir(*dbOut), s.File), s.ID, s.Objects)
			}
			fmt.Printf("wrote %s: %dx%d shard manifest at epoch %d (fill in shard addresses, then skcoord -manifest)\n",
				manPath, man.NX, man.NY, man.Epoch)
		}
	}
	os.Exit(0)
}

// saveSnapshots writes db's snapshot to dbOut and, when tiles is not
// empty, cuts it into that shard grid beside it: the tile snapshots and
// their manifest. The untiled snapshot is written while the tiles are cut —
// every writer only reads the database — and both are finished before any
// error is returned. The manifest is nil without tiles.
func saveSnapshots(db *core.TerrainDB, dbOut, tiles string) (man *shard.Manifest, manPath string, err error) {
	saved := make(chan error, 1)
	go func() { saved <- db.SaveFile(dbOut) }()
	if tiles != "" {
		man, manPath, err = cutTiles(db, dbOut, tiles)
	}
	if serr := <-saved; serr != nil {
		return nil, "", serr
	}
	return man, manPath, err
}

// cutTiles cuts db into the tiles grid beside dbOut and writes the
// manifest.
func cutTiles(db *core.TerrainDB, dbOut, tiles string) (*shard.Manifest, string, error) {
	nx, ny, err := parseTiles(tiles)
	if err != nil {
		return nil, "", err
	}
	dir := filepath.Dir(dbOut)
	prefix := strings.TrimSuffix(filepath.Base(dbOut), ".skdb")
	man, err := shard.Cut(db, nx, ny, dir, prefix)
	if err != nil {
		return nil, "", err
	}
	manPath := filepath.Join(dir, prefix+".manifest.json")
	if err := shard.WriteManifest(man, manPath); err != nil {
		return nil, "", err
	}
	return man, manPath, nil
}

// parseTiles parses an "NxM" grid spec.
func parseTiles(s string) (nx, ny int, err error) {
	if _, err := fmt.Sscanf(strings.ToLower(s), "%dx%d", &nx, &ny); err != nil || nx < 1 || ny < 1 {
		return 0, 0, fmt.Errorf("invalid -tiles %q (want NxM, e.g. 2x2)", s)
	}
	return nx, ny, nil
}
