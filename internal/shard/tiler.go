package shard

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"surfknn/internal/core"
	"surfknn/internal/workload"
)

// Cut tiles db's current object set into an nx×ny grid and writes one
// shard snapshot per tile into dir, named "<prefix>-tile-<ix>-<iy>.skdb".
// Each snapshot carries the full terrain (see the package comment on halo)
// and exactly the objects the tile owns, saved at db's current epoch so a
// freshly-launched fleet reports the same epoch the source database had.
// Returns the manifest describing the cut; the caller decides where to
// write it (WriteManifest).
func Cut(db *core.TerrainDB, nx, ny int, dir, prefix string) (*Manifest, error) {
	if nx < 1 || ny < 1 {
		return nil, fmt.Errorf("shard: invalid grid %dx%d", nx, ny)
	}
	tiling := Tiling{NX: nx, NY: ny, Extent: db.Mesh.Extent()}
	objs := db.Objects()
	epoch := db.CurrentEpoch()
	parts := workload.PartitionObjects(objs, tiling.NumTiles(), func(o workload.Object) int {
		ix, iy := tiling.TileOf(o.Point.XY())
		return iy*nx + ix
	})

	man := &Manifest{
		FormatVersion: ManifestVersion,
		NX:            nx,
		NY:            ny,
		Extent:        ToRect(tiling.Extent),
		Epoch:         epoch,
		Halo:          "full",
	}
	// One goroutine per tile: each writes its own file from the read-only
	// database and its own object partition. The manifest lists the tiles
	// in row-major order whatever order the writes finish in, and the first
	// failing tile in that order names the error.
	errs := make([]error, len(parts))
	var wg sync.WaitGroup
	for iy := 0; iy < ny; iy++ {
		for ix := 0; ix < nx; ix++ {
			t := iy*nx + ix
			file := fmt.Sprintf("%s-%s.skdb", prefix, TileID(ix, iy))
			man.Shards = append(man.Shards, ShardMeta{
				ID:      TileID(ix, iy),
				IX:      ix,
				IY:      iy,
				File:    file,
				Objects: len(parts[t]),
			})
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[t] = saveShard(db, filepath.Join(dir, file), parts[t], epoch)
			}()
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if err := man.Validate(); err != nil {
		return nil, err
	}
	return man, nil
}

func saveShard(db *core.TerrainDB, path string, objs []workload.Object, epoch uint64) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	if err := db.SaveWithObjects(f, objs, epoch); err != nil {
		f.Close()
		return fmt.Errorf("shard: writing %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}
