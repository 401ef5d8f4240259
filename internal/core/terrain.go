package core

import (
	"fmt"
	"sync"
	"time"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/multires"
	"surfknn/internal/objstore"
	"surfknn/internal/obs"
	"surfknn/internal/pathnet"
	"surfknn/internal/sdn"
	"surfknn/internal/storage"
	"surfknn/internal/workload"
)

// Config tunes terrain-database construction.
type Config struct {
	// SteinerPerEdge sets the pathnet refinement (the paper inserts one
	// Steiner point per edge, §5.1). Default 1.
	SteinerPerEdge int
	// SDNSpacing sets the cutting-plane interval; 0 means the mesh's
	// average edge length (the paper's densest recommendation).
	SDNSpacing float64
	// PoolPages is the buffer-pool capacity in pages. Default 4096;
	// negative is an error.
	PoolPages int
	// PageCost is the simulated I/O latency charged per page access when
	// reporting total response time (CPU time excludes it). Default 1 ms,
	// a clustered-read figure for the paper's era of hardware.
	PageCost time.Duration
}

func (c Config) withDefaults() (Config, error) {
	if c.PoolPages < 0 {
		return c, fmt.Errorf("core: buffer pool of %d pages: the size must not be negative", c.PoolPages)
	}
	if c.SteinerPerEdge == 0 {
		c.SteinerPerEdge = 1
	}
	if c.PoolPages == 0 {
		c.PoolPages = 4096
	}
	if c.PageCost == 0 {
		c.PageCost = time.Millisecond
	}
	return c, nil
}

// TerrainDB bundles a terrain surface with every derived structure sk-NN
// query processing needs: the DDM tree and pathnet (DMTM), the MSDN, the
// paged stores that account disk accesses, and the object set with its 2-D
// R-tree (the paper's Dxy), held in a versioned objstore.Store.
//
// After construction the terrain structures are immutable. The object set
// is dynamic: Upsert/Delete on ObjectStore() publish new epochs
// while queries run — each query pins one epoch at beginQuery and sees that
// single consistent version throughout (see internal/objstore). Queries
// read everything through per-query Sessions (see NewSession), so any
// number of queries may run concurrently with updates on one TerrainDB.
type TerrainDB struct {
	Mesh *mesh.Mesh
	Loc  *mesh.Locator
	Tree *multires.Tree
	Path *pathnet.Pathnet
	MSDN *sdn.MSDN
	Pool *storage.BufferPool
	// Extent is the terrain's (x,y) bounding rectangle, computed once at
	// assembly: the initial I/O region of every candidate, so the query path
	// must not rescan the vertices for it.
	Extent geom.MBR

	cfg           Config
	reg           *obs.Registry // process-wide counters; nil when uninstrumented
	sessions      sessionPool   // idle sessions for AcquireSession/Release
	dmtmStore     *storage.Clustered
	sdnStore      *storage.Clustered
	store         *objstore.Store // versioned object table + Dxy; nil before SetObjects
	formatVersion int             // snapshot format loaded from, or the current format when built fresh

	// rungTime is each rung's DMTM collapse time, computed once at assembly;
	// the pathnet rung's is 0, the full-resolution pages it owes.
	rungTime [len(rungs)]int32
}

// FormatVersion reports the snapshot format version this database was loaded
// from (4 for the current format, 3 for legacy); a freshly built database
// reports the current format, the only one Save writes. Serving layers expose it in
// healthz so a coordinator can verify topology.
func (db *TerrainDB) FormatVersion() int { return db.formatVersion }

// Instrument attaches a process-wide observability registry: every query
// on this database (from any session) feeds its lifecycle, work and latency
// counters, and the buffer pool mirrors its hit/miss/eviction activity.
// Like SetObjects this is a setup step — call it before sessions start
// querying; sessions read the field without locks. A nil registry detaches.
// Uninstrumented databases skip all registry work, so experiment figures are
// unchanged by this machinery existing.
func (db *TerrainDB) Instrument(reg *obs.Registry) {
	db.reg = reg
	db.Pool.Instrument(reg)
	if db.store != nil {
		db.store.Instrument(reg)
	}
}

// Registry returns the registry installed with Instrument (nil when the
// database is uninstrumented).
func (db *TerrainDB) Registry() *obs.Registry { return db.reg }

// BuildTerrainDB derives all structures from the mesh. This is the offline
// preprocessing step of the paper ("DMTM is pre-created ... Both DMTM and
// MSDN data are stored in the Oracle database"). The three builds — DDM,
// MSDN, pathnet — run concurrently (see assembleTerrainDB).
func BuildTerrainDB(m *mesh.Mesh, cfg Config) (*TerrainDB, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return assembleTerrainDB(m, cfg,
		func() (*multires.Tree, error) {
			tree, err := multires.BuildFromMesh(m)
			if err != nil {
				return nil, fmt.Errorf("core: building DDM: %w", err)
			}
			return tree, nil
		},
		func() *sdn.MSDN { return sdn.BuildMSDN(m, cfg.SDNSpacing) },
		func() *pathnet.Pathnet { return pathnet.Build(m, cfg.SteinerPerEdge) })
}

// assembleTerrainDB obtains the three precomputed structures (freshly built
// or loaded from a snapshot) from tree, ms and path and wires them into a
// queryable database, deriving the rest (locator, level networks, SDN
// tables, paged stores). cfg has its defaults applied.
//
// The stage graph is fixed: three branches run at once, joined by a
// WaitGroup, and each reads only the mesh and writes only its own fields —
//
//   - DMTM: tree(), its records in storage order, the rungs' collapse
//     times and the level networks (sortDMTM);
//   - SDN: ms(), its segment tables and footprint records in storage order
//     (sortSDN);
//   - pathnet: path() and the face locator.
//
// Pages are allocated only after the join, in one fixed order — every DMTM
// page, then every SDN page — so page IDs and directories do not depend on
// which branch finished first. Under GOMAXPROCS=1 the branches simply run
// one after another.
func assembleTerrainDB(m *mesh.Mesh, cfg Config, tree func() (*multires.Tree, error), ms func() *sdn.MSDN, path func() *pathnet.Pathnet) (*TerrainDB, error) {
	db := &TerrainDB{
		Mesh:   m,
		cfg:    cfg,
		Extent: m.Extent(),

		formatVersion: 4,
	}
	var (
		wg           sync.WaitGroup
		treeErr      error
		drecs, srecs []storage.ClusterRecord
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		if db.Tree, treeErr = tree(); treeErr == nil {
			drecs = db.sortDMTM()
		}
	}()
	go func() {
		defer wg.Done()
		db.MSDN = ms()
		srecs = db.sortSDN()
	}()
	db.Path = path()
	db.Loc = mesh.NewLocator(m)
	wg.Wait()
	if treeErr != nil {
		return nil, treeErr
	}
	db.Pool = storage.NewBufferPool(storage.NewMemFile(), cfg.PoolPages)
	db.dmtmStore = storage.PackClustered(db.Pool, drecs)
	db.sdnStore = storage.PackClustered(db.Pool, srecs)
	return db, nil
}

// dmtmRecords returns the DMTM connectivity records: one per DDM edge, with
// its index as the ID, its representatives' rectangle and its lifetime
// [Birth, Death) as the validity interval.
func dmtmRecords(tree *multires.Tree) []storage.ClusterRecord {
	recs := make([]storage.ClusterRecord, len(tree.Edges))
	for i, e := range tree.Edges {
		minX, minY, maxX, maxY := tree.EdgeMBR(e)
		recs[i] = storage.ClusterRecord{
			ID:   uint64(i),
			MBR:  geom.MBR{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY},
			From: e.Birth,
			To:   e.Death,
		}
	}
	return recs
}

// sortDMTM puts the DMTM records in storage order, computes the rungs'
// collapse times and materialises the tree's level network of each in
// storage order, read off the sorted records (why:
// multires.Estimator.UpperBound). It returns the records for the page pack.
func (db *TerrainDB) sortDMTM() []storage.ClusterRecord {
	recs := dmtmRecords(db.Tree)
	storage.SortClustered(recs)
	order := make([]int32, len(recs))
	for i, r := range recs {
		order[i] = int32(r.ID)
	}
	for i, r := range rungs[:pathnetRung] {
		db.rungTime[i] = db.Tree.TimeForResolution(r.dmtm)
	}
	db.Tree.Materialize(order, db.rungTime[:pathnetRung])
	return recs
}

// sortSDN materialises the SDN segments, one set per ladder level ("line
// segments with extra information to record their resolution level and to
// which plane they belong to", §3.3), and returns their footprint records
// in storage order. The one pass feeds both consumers: the tables stay on
// the MSDN for the lower-bound kernel, and each segment's footprint becomes
// a paged record.
func (db *TerrainDB) sortSDN() []storage.ClusterRecord {
	db.MSDN.Materialize(SDNLadder)
	n := 0
	for level := range SDNLadder {
		n += db.MSDN.NumSegments(level)
	}
	recs := make([]storage.ClusterRecord, 0, n)
	for level := range SDNLadder {
		db.MSDN.Footprints(level, func(box geom.MBR) {
			if !box.Intersects(db.Extent) {
				return
			}
			recs = append(recs, storage.ClusterRecord{
				ID:   uint64(len(recs)),
				MBR:  box,
				From: int32(level),
				To:   int32(level) + 1,
			})
		})
	}
	storage.SortClustered(recs)
	return recs
}

// SetObjects installs the object dataset at epoch 0: it replaces the whole
// object store with a fresh one whose bulk-packed base holds objs and whose
// Dxy R-tree is built over their (x,y) projections. It is a setup step, not
// a query: call it before any session starts querying (it swaps the store
// that concurrent queries pin without locks). Incremental changes under
// live traffic go through ObjectStore().Upsert/Delete instead.
func (db *TerrainDB) SetObjects(objs []workload.Object) {
	db.SetObjectsAt(objs, 0)
}

// SetObjectsAt is SetObjects resuming at a given epoch number — how a
// snapshot restore continues the version sequence it was saved at.
func (db *TerrainDB) SetObjectsAt(objs []workload.Object, epoch uint64) {
	db.store = objstore.NewAt(objs, epoch)
	if db.reg != nil {
		db.store.Instrument(db.reg)
	}
}

// ObjectStore returns the versioned object store (nil before SetObjects).
// All object mutation goes through it; the sklint objstore-write rule
// forbids writing the object table directly anywhere else.
func (db *TerrainDB) ObjectStore() *objstore.Store { return db.store }

// CurrentEpoch returns the latest published object epoch (0 before
// SetObjects).
func (db *TerrainDB) CurrentEpoch() uint64 {
	if db.store == nil {
		return 0
	}
	return db.store.Epoch()
}

// Objects returns the current epoch's object table. The slice is shared
// with the store and must not be modified.
func (db *TerrainDB) Objects() []workload.Object {
	if db.store == nil {
		return nil
	}
	return db.store.Current().Table()
}

// Object resolves an object by ID in the current epoch.
func (db *TerrainDB) Object(id int64) (workload.Object, bool) {
	if db.store == nil {
		return workload.Object{}, false
	}
	return db.store.Current().Object(id)
}

// SurfacePointAt lifts a 2-D location onto the surface.
func (db *TerrainDB) SurfacePointAt(p geom.Vec2) (mesh.SurfacePoint, error) {
	return mesh.MakeSurfacePoint(db.Mesh, db.Loc, p)
}

// ReferenceDistance returns the library's ground-truth surface distance:
// the pathnet approximation at the configured refinement (the same network
// MR3's finest level uses). Tests compare MR3 and EA results against
// rankings under this metric.
func (db *TerrainDB) ReferenceDistance(a, b mesh.SurfacePoint) float64 {
	d, _ := db.Path.Distance(a, b)
	return d
}
