// Package surfknn answers k-nearest-neighbour queries over terrain
// surfaces where distance is measured along the surface, implementing
// "Surface k-NN Query Processing" (Deng, Zhou, Shen, Xu, Lin — ICDE 2006).
//
// The workflow is: synthesize or load a terrain grid, triangulate it, build
// a TerrainDB (which derives the paper's DMTM and MSDN multiresolution
// structures and the paged stores), install objects, and query:
//
//	grid    := surfknn.Synthesize(surfknn.BH, 64, 50, 42)
//	surface := surfknn.FromGrid(grid)
//	db, _   := surfknn.BuildTerrainDB(surface, surfknn.Config{})
//	objs, _ := surfknn.RandomObjects(surface, db.Loc, 100, 7)
//	db.SetObjects(objs)
//	q, _    := db.SurfacePointAt(surfknn.Vec2{X: 800, Y: 800})
//	s       := db.NewSession()
//	res, _  := s.MR3Ctx(ctx, q, 5, surfknn.S1, surfknn.Options{})
//
// Every query runs through a Session — one per goroutine, reusable for any
// number of consecutive queries — and takes the context that cancels or
// deadlines that one query. The terrain itself is immutable once built, so
// sessions always query concurrently. The object set is versioned: Upsert
// and Delete on the TerrainDB's ObjectStore publish a new immutable epoch
// while in-flight queries keep reading the epoch they pinned — no
// locks on the query path, no stop-the-world.
//
// This file is the public facade over the implementation packages in
// internal/; the aliases below are the supported API surface.
package surfknn

import (
	"io"
	"net/http"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geodesic"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/objstore"
	"surfknn/internal/obs"
	"surfknn/internal/pathnet"
	"surfknn/internal/stats"
	"surfknn/internal/workload"
)

// Geometry primitives.
type (
	// Vec2 is a point in the (x,y) plane.
	Vec2 = geom.Vec2
	// Vec3 is a point in space; Z is elevation.
	Vec3 = geom.Vec3
	// MBR is an axis-aligned rectangle in the (x,y) plane.
	MBR = geom.MBR
)

// Terrain data.
type (
	// Grid is a regular elevation grid (the DEM).
	Grid = dem.Grid
	// Preset selects a synthetic terrain character.
	Preset = dem.Preset
	// Mesh is the triangulated terrain surface.
	Mesh = mesh.Mesh
	// SurfacePoint is a point on the surface with its containing face.
	SurfacePoint = mesh.SurfacePoint
)

// Synthetic terrain presets calibrated after the paper's two datasets.
var (
	// BH is the rugged preset (Bearhead Mountain stand-in).
	BH = dem.BH
	// EP is the smooth preset (Eagle Peak stand-in).
	EP = dem.EP
)

// Synthesize generates a deterministic synthetic terrain: a (size+1)²
// sample grid (size must be a power of two) spaced cellSize metres apart.
func Synthesize(p Preset, size int, cellSize float64, seed int64) *Grid {
	return dem.Synthesize(p, size, cellSize, seed)
}

// ReadGridFile loads a terrain written by (*Grid).WriteFile or cmd/skgen.
func ReadGridFile(path string) (*Grid, error) { return dem.ReadFile(path) }

// FromGrid triangulates an elevation grid into a surface mesh.
func FromGrid(g *Grid) *Mesh { return mesh.FromGrid(g) }

// Query engine.
type (
	// TerrainDB bundles a surface with every structure sk-NN queries need.
	TerrainDB = core.TerrainDB
	// Config tunes TerrainDB construction (pathnet level, buffer pool,
	// simulated page cost). The zero value uses the paper's settings.
	Config = core.Config
	// Options tunes query execution; the zero value enables every paper
	// optimisation. Build one as a struct literal or with NewOptions.
	Options = core.Options
	// Option is a functional Options setting (see NewOptions).
	Option = core.Option
	// Schedule is one of the paper's step-length schedules (§5.3): S1, S2
	// or S3, a closed set. Each step names a rung of one resolution table,
	// so a custom schedule cannot be built.
	Schedule = core.Schedule
	// Result is a query result: the neighbours plus the structured Cost
	// breakdown (and, when tracing, the phase Trace).
	Result = core.Result
	// Cost is a query's structured cost: per-phase wall time, page accesses
	// split into buffer-pool hits/misses and R-tree visits, and the work
	// counters. Result.Metrics() derives the legacy flat view.
	Cost = stats.Cost
	// PhaseCost is one phase's slice of a Cost.
	PhaseCost = stats.PhaseCost
	// Metrics is the legacy flat cost view.
	Metrics = stats.Metrics
	// Trace is a query's phase trace: one timed span per query phase and
	// per LOD refinement iteration. Enable with (*Session).SetTracing.
	Trace = obs.Trace
	// Registry is the process-wide observability registry: atomic counters
	// and latency histograms fed by every query on an instrumented
	// TerrainDB. Publish exposes it on /debug/vars.
	Registry = obs.Registry
	// SlowQueryLog writes one JSON line per query slower than a threshold.
	// Install on a Registry with SetSlowLog.
	SlowQueryLog = obs.SlowQueryLog
	// Neighbor is one result entry with its distance range.
	Neighbor = core.Neighbor
	// Object is an indexed data point on the surface.
	Object = workload.Object
	// Session is the query handle on a TerrainDB and the only way to run a
	// query: MR3Ctx, EACtx, SurfaceRangeCtx, ClosestPairCtx, MR3SafeCtx,
	// MaskedKNNCtx and DistanceWithAccuracyCtx each take the context that
	// cancels or deadlines that one query (nil means context.Background()).
	// It owns the reusable per-query scratch (candidate state, Dijkstra
	// buffers, page accounting), so a Result's slices are valid until the
	// session's next query. The terrain is immutable and each query pins
	// one object epoch for its whole run, so any number of sessions may
	// query (and the object set may be updated) concurrently — one
	// goroutine per Session. Create one with (*TerrainDB).NewSession, or
	// check one out per unit of work with AcquireSession/Release.
	Session = core.Session
)

// Dynamic objects. Every TerrainDB owns a versioned object store; updates
// publish new immutable epochs while queries keep reading the one they
// pinned (see DESIGN.md, "Dynamic objects & epochs").
type (
	// ObjectStore is the epoch-versioned object store behind a TerrainDB.
	// Obtain it with (*TerrainDB).ObjectStore; Upsert/Delete each publish
	// a new epoch visible to subsequent queries only.
	ObjectStore = objstore.Store
	// ObjectEpoch is one immutable version of the object set. Pin returns
	// one; Release it when done so its memory can be reclaimed.
	ObjectEpoch = objstore.Epoch
)

// The paper's three step-length schedules.
const (
	// S1 walks every resolution level (most I/O, tightest refinement).
	S1 = core.S1
	// S2 skips every other level.
	S2 = core.S2
	// S3 jumps almost directly to full resolution (fewest iterations).
	S3 = core.S3
)

// BuildTerrainDB derives the DMTM, MSDN and paged stores from a surface —
// the paper's offline preprocessing step.
func BuildTerrainDB(m *Mesh, cfg Config) (*TerrainDB, error) {
	return core.BuildTerrainDB(m, cfg)
}

// NewOptions builds an Options value from functional settings; unlike the
// struct fields, fraction arguments are taken literally (WithStep2Accuracy(0)
// really means 0). With no arguments it equals Options{}.
func NewOptions(opts ...Option) Options { return core.NewOptions(opts...) }

// Functional Options settings (see internal/core/options.go for semantics).
var (
	WithStep2Accuracy    = core.WithStep2Accuracy
	WithOverlapThreshold = core.WithOverlapThreshold
	WithIOIntegration    = core.WithIOIntegration
	WithDummyLB          = core.WithDummyLB
)

// Observability. Instrument a TerrainDB with a Registry to feed the
// process-wide counters, publish the registry on /debug/vars, and serve the
// debug endpoints:
//
//	reg := surfknn.NewRegistry()
//	db.Instrument(reg)
//	_ = reg.Publish("surfknn")
//	srv, addr, _ := surfknn.StartDebugServer("127.0.0.1:8080")
//	defer srv.Close()

// NewRegistry creates an observability registry (all counters zero).
func NewRegistry() *Registry { return obs.NewRegistry() }

// StartDebugServer serves /debug/vars and /debug/pprof/* on addr in a
// background goroutine, returning the resolved listen address (useful with
// port 0).
func StartDebugServer(addr string) (*http.Server, string, error) {
	return obs.StartDebugServer(addr)
}

// NewSlowQueryLog writes queries slower than threshold to w as JSON lines
// (threshold 0 logs every query). Install with Registry.SetSlowLog.
func NewSlowQueryLog(w io.Writer, threshold time.Duration) *SlowQueryLog {
	return obs.NewSlowQueryLog(w, threshold)
}

// ErrBadSnapshot marks a snapshot file rejected as structurally invalid or
// corrupt (bad magic, implausible counts, checksum mismatch) rather than
// unreadable. Select it with errors.Is.
var ErrBadSnapshot = core.ErrBadSnapshot

// LoadTerrainDB reads a snapshot written by (*TerrainDB).SaveFile.
func LoadTerrainDB(path string, cfg Config) (*TerrainDB, error) {
	return core.LoadFile(path, cfg)
}

// RandomObjects places n objects uniformly at random on the surface.
func RandomObjects(m *Mesh, loc *mesh.Locator, n int, seed int64) ([]Object, error) {
	return workload.RandomObjects(m, loc, n, seed)
}

// UniformObjects places objects with the given density (objects per km²).
func UniformObjects(m *Mesh, loc *mesh.Locator, densityPerKm2 float64, seed int64) ([]Object, error) {
	return workload.UniformObjects(m, loc, densityPerKm2, seed)
}

// Surface distances outside the query engine.

// ExactDistance computes the exact geodesic distance between two surface
// points (Chen–Han-style window propagation). Exponentially more expensive
// than the query engine's bounds — intended for small meshes and ground
// truth.
func ExactDistance(m *Mesh, a, b SurfacePoint) float64 {
	return geodesic.Distance(m, a, b)
}

// Refiner computes approximate surface distances by Kanai–Suzuki selective
// refinement (the paper's EA distance computation).
type Refiner = pathnet.Refiner

// NewRefiner creates a refiner for the mesh with the paper's 3% tolerance.
func NewRefiner(m *Mesh, loc *mesh.Locator) *Refiner {
	return pathnet.NewRefiner(m, loc)
}

// Constrained traversal (the paper's §6 obstacle-constraint future work).
type (
	// FaceMask marks terrain faces as traversable.
	FaceMask = core.FaceMask
	// DistanceRange brackets a surface distance with its accuracy.
	DistanceRange = core.DistanceRange
)

// SlopeMask admits faces no steeper than maxSlopeDeg (rover stability).
func SlopeMask(m *Mesh, maxSlopeDeg float64) FaceMask {
	return core.SlopeMask(m, maxSlopeDeg)
}

// RegionMask blocks faces whose centroids fall inside the obstacle
// rectangles.
func RegionMask(m *Mesh, obstacles []MBR) FaceMask {
	return core.RegionMask(m, obstacles)
}

// AndMask combines masks conjunctively.
func AndMask(masks ...FaceMask) FaceMask { return core.AndMask(masks...) }

// ReadArcGrid parses an Esri ASCII grid (.asc) DEM — the interchange format
// for real USGS-style elevation data.
func ReadArcGrid(r io.Reader) (*Grid, error) { return dem.ReadArcGrid(r) }
