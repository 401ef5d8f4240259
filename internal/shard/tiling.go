// Package shard is the horizontal-scaling layer over the surfknn engine: a
// tiler that cuts one terrain database into independent per-tile shard
// snapshots, and a scatter-gather coordinator that answers the public query
// API over a fleet of shard servers with answers bit-identical to the
// unsharded engine.
//
// # Tiling
//
// The (x,y) extent of the terrain is cut into an NX×NY grid of tiles. Each
// shard owns the objects whose projection falls inside its tile — object
// ownership is a disjoint partition — while the terrain itself (mesh,
// multiresolution pyramid, pathnet) is replicated in full into every shard
// snapshot. Full replication is the halo margin taken to its sound extreme:
// a geodesic between a query point and a boundary object may wander
// arbitrarily far outside either one's tile, and any trimmed halo would
// bound that wander by assumption. With the whole surface present, every
// shard ranks candidates against exactly the terrain the unsharded engine
// sees, which is what makes bit-identical answers possible (see
// DESIGN.md, "Sharded serving"). Terrain dominates snapshot size only for
// small object sets; the object partition — the part that grows with scale
// and takes updates — is what sharding divides.
//
// # Query decomposition
//
// MR3's per-candidate distance bounds depend only on the query point, the
// candidate and the terrain, never on the other candidates, so one shard
// can rank candidates gathered from every tile. A k-NN query goes to the
// shard whose tile holds the query point (the query tile), and every other
// tile first sends its k nearest objects by planar distance. The query
// tile's shard runs all four steps over its own partition plus those
// candidates (internal/core.Session.MR3ShippedCtx). Steps 1 and 3 merge
// local and shipped objects in one canonical order, so C1 and C2 are the
// sets the unsharded engine reads.
//
// Step 3 is exact without another round whenever the step-2 radius r is
// below the shipped set's completeness radius: a tile that sent k objects
// holds none it did not send closer than its k-th, and a tile that sent
// fewer sent all it has. Planar distance lower-bounds surface distance, so
// every object step 3 can need is then already on the query tile's shard.
// Otherwise that shard returns r; the tiles within r whose shipped set
// does not cover it answer a 2-D range query, and the query tile's shard
// is called again for steps 3 and 4 at r. Range queries decompose per
// shard outright; EA merges per-shard top-k lists.
//
// # Updates
//
// The coordinator assigns every logical update one epoch number and replays
// it to all shards (objstore.ApplyAt), each upsert routed to the tile that
// now owns it and its id broadcast as a delete everywhere else. Every
// shard's epoch advances in lockstep, so the merged X-Epoch stays equal to
// the epoch an unsharded server would report.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"surfknn/internal/geom"
)

// ManifestVersion is the format version of the manifest file; readers
// reject anything newer.
const ManifestVersion = 1

// Tiling is the NX×NY cut of a terrain extent. Tile (0,0) is the
// south-west corner; tile indices grow with x and y.
type Tiling struct {
	NX, NY int
	Extent geom.MBR
}

// NumTiles returns NX·NY.
func (t Tiling) NumTiles() int { return t.NX * t.NY }

// TileOf maps a point to the tile that owns it. Ownership is a disjoint
// partition of the plane: each tile is half-open on its high edges, with
// the extent's outer boundary clamped into the last tile, and points
// outside the extent clamp to the nearest tile — the tiler never sees them
// (objects lie on the terrain) but the router must send a moved object
// somewhere deterministic.
func (t Tiling) TileOf(p geom.Vec2) (ix, iy int) {
	ix = clampTile(p.X, t.Extent.MinX, t.Extent.MaxX, t.NX)
	iy = clampTile(p.Y, t.Extent.MinY, t.Extent.MaxY, t.NY)
	return ix, iy
}

func clampTile(v, lo, hi float64, n int) int {
	if !(hi > lo) {
		return 0
	}
	i := int(float64(n) * (v - lo) / (hi - lo))
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// Region returns tile (ix, iy)'s rectangle. Regions tile the extent
// exactly; the shared edges belong to the higher-index tile per TileOf.
func (t Tiling) Region(ix, iy int) geom.MBR {
	w := t.Extent.Width() / float64(t.NX)
	h := t.Extent.Height() / float64(t.NY)
	return geom.MBR{
		MinX: t.Extent.MinX + float64(ix)*w,
		MaxX: t.Extent.MinX + float64(ix+1)*w,
		MinY: t.Extent.MinY + float64(iy)*h,
		MaxY: t.Extent.MinY + float64(iy+1)*h,
	}
}

// TileID names tile (ix, iy); it is the shard id the shard server reports
// in /v1/healthz and the coordinator verifies at startup.
func TileID(ix, iy int) string { return fmt.Sprintf("tile-%d-%d", ix, iy) }

// Manifest describes one tiled deployment: the grid, the epoch the cut was
// taken at, and one entry per shard. skgen -tiles writes it next to the
// shard snapshots; skcoord reads it and pairs each entry with a listen
// address.
type Manifest struct {
	FormatVersion int    `json:"format_version"`
	NX            int    `json:"nx"`
	NY            int    `json:"ny"`
	Extent        Rect   `json:"extent"`
	Epoch         uint64 `json:"epoch"`
	// Halo records the terrain margin each shard snapshot carries around
	// its tile. "full" — the only value this version writes — means the
	// complete surface is replicated (see the package comment for why).
	Halo   string      `json:"halo"`
	Shards []ShardMeta `json:"shards"`
}

// ShardMeta is one shard's line in the manifest.
type ShardMeta struct {
	ID      string `json:"id"`
	IX      int    `json:"ix"`
	IY      int    `json:"iy"`
	File    string `json:"file"`    // snapshot filename, relative to the manifest
	Objects int    `json:"objects"` // objects owned at cut time
	Addr    string `json:"addr,omitempty"`
}

// Rect is geom.MBR with wire names, so the manifest's JSON is explicit
// about which bound is which.
type Rect struct {
	MinX float64 `json:"min_x"`
	MinY float64 `json:"min_y"`
	MaxX float64 `json:"max_x"`
	MaxY float64 `json:"max_y"`
}

// MBR converts back to the geometry type.
func (r Rect) MBR() geom.MBR {
	return geom.MBR{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}

// ToRect converts a geometry MBR to its manifest form.
func ToRect(m geom.MBR) Rect {
	return Rect{MinX: m.MinX, MinY: m.MinY, MaxX: m.MaxX, MaxY: m.MaxY}
}

// Tiling returns the manifest's grid as geometry.
func (m *Manifest) Tiling() Tiling {
	return Tiling{NX: m.NX, NY: m.NY, Extent: m.Extent.MBR()}
}

// Validate checks internal consistency: a positive grid, one shard per
// tile, ids matching their tile coordinates.
func (m *Manifest) Validate() error {
	if m.FormatVersion > ManifestVersion {
		return fmt.Errorf("shard: manifest format v%d is newer than this build (v%d)", m.FormatVersion, ManifestVersion)
	}
	if m.NX < 1 || m.NY < 1 {
		return fmt.Errorf("shard: invalid grid %dx%d", m.NX, m.NY)
	}
	if m.Halo != "full" {
		return fmt.Errorf("shard: unsupported halo %q (this build requires full terrain replication)", m.Halo)
	}
	if len(m.Shards) != m.NX*m.NY {
		return fmt.Errorf("shard: manifest has %d shards, grid %dx%d needs %d", len(m.Shards), m.NX, m.NY, m.NX*m.NY)
	}
	seen := make(map[string]bool, len(m.Shards))
	for i, s := range m.Shards {
		if s.IX < 0 || s.IX >= m.NX || s.IY < 0 || s.IY >= m.NY {
			return fmt.Errorf("shard: shards[%d] tile (%d,%d) outside grid %dx%d", i, s.IX, s.IY, m.NX, m.NY)
		}
		if want := TileID(s.IX, s.IY); s.ID != want {
			return fmt.Errorf("shard: shards[%d] id %q does not match tile (%d,%d)", i, s.ID, s.IX, s.IY)
		}
		if seen[s.ID] {
			return fmt.Errorf("shard: duplicate shard id %q", s.ID)
		}
		seen[s.ID] = true
	}
	return nil
}

// ShardAt returns the manifest entry owning tile (ix, iy).
func (m *Manifest) ShardAt(ix, iy int) (ShardMeta, error) {
	for _, s := range m.Shards {
		if s.IX == ix && s.IY == iy {
			return s, nil
		}
	}
	return ShardMeta{}, fmt.Errorf("shard: no shard for tile (%d,%d)", ix, iy)
}

// WriteManifest writes m as JSON to path.
func WriteManifest(m *Manifest, path string) error {
	if err := m.Validate(); err != nil {
		return err
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: encoding manifest: %w", err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadManifest reads and validates a manifest file.
func ReadManifest(path string) (*Manifest, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest %s: %w", path, err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	if len(m.Shards) == 0 {
		return nil, errors.New("shard: manifest lists no shards")
	}
	return &m, nil
}
