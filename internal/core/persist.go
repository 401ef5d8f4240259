package core

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/index"
	"surfknn/internal/mesh"
	"surfknn/internal/multires"
	"surfknn/internal/objstore"
	"surfknn/internal/pathnet"
	"surfknn/internal/sdn"
	"surfknn/internal/workload"
)

// ErrBadSnapshot marks structural-validation failures while loading a
// snapshot (bad magic, implausible counts, inconsistent tree shape) as
// opposed to plain read errors. Callers distinguish a corrupt file from a
// truncated stream with errors.Is(err, core.ErrBadSnapshot).
var ErrBadSnapshot = errors.New("bad snapshot")

// Persistence: a TerrainDB snapshot holds the mesh, the DDM tree, the MSDN
// and (optionally) the object set. All integers and floats are
// little-endian; the format is versioned, and the body is followed by a
// CRC-32C footer so a flipped bit in float payload (which no structural
// check can see) fails loudly instead of skewing every distance bound
// computed from the loaded structures.
//
// Format v4 appends the query-time flat buffers — the pathnet (CSR graph,
// vertex positions, face-point lists) and the object Dxy R-tree (node and
// item slabs) — so loading is a straight read into the SoA layout instead of
// re-running the Steiner subdivision and the STR bulk pack. v3 (which
// rebuilt both) is still readable but no longer written; the paged stores
// remain deterministic derivations rebuilt on every load.

// Format v3 added the object-store epoch number to the objects section, so
// a restarted server resumes the version sequence where the snapshot left
// it. v2 snapshots are not readable (regenerate with skgen -db).
var (
	dbMagic   = [8]byte{'S', 'K', 'N', 'N', 'D', 'B', '0', '4'}
	dbMagicV3 = [8]byte{'S', 'K', 'N', 'N', 'D', 'B', '0', '3'}
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type persistWriter struct {
	w   *bufio.Writer
	crc uint32
	err error
	buf [8]byte
}

// write sends raw bytes and folds them into the running checksum.
func (p *persistWriter) write(b []byte) {
	if p.err != nil {
		return
	}
	if _, err := p.w.Write(b); err != nil {
		p.err = err
		return
	}
	p.crc = crc32.Update(p.crc, crcTable, b)
}

func (p *persistWriter) u8(v uint8) {
	p.buf[0] = v
	p.write(p.buf[:1])
}
func (p *persistWriter) u32(v uint32) {
	binary.LittleEndian.PutUint32(p.buf[:4], v)
	p.write(p.buf[:4])
}
func (p *persistWriter) i32(v int32) { p.u32(uint32(v)) }
func (p *persistWriter) u64(v uint64) {
	binary.LittleEndian.PutUint64(p.buf[:8], v)
	p.write(p.buf[:8])
}
func (p *persistWriter) f64(v float64) { p.u64(math.Float64bits(v)) }
func (p *persistWriter) vec3(v geom.Vec3) {
	p.f64(v.X)
	p.f64(v.Y)
	p.f64(v.Z)
}
func (p *persistWriter) mbr(m geom.MBR) {
	p.f64(m.MinX)
	p.f64(m.MinY)
	p.f64(m.MaxX)
	p.f64(m.MaxY)
}

type persistReader struct {
	r   *bufio.Reader
	crc uint32
	err error
	buf [8]byte
}

// read fills b and folds it into the running checksum; the final footer is
// read outside this path so it does not hash itself.
func (p *persistReader) read(b []byte) bool {
	if p.err != nil {
		return false
	}
	if _, err := io.ReadFull(p.r, b); err != nil {
		p.err = err
		return false
	}
	p.crc = crc32.Update(p.crc, crcTable, b)
	return true
}

func (p *persistReader) u8() uint8 {
	if !p.read(p.buf[:1]) {
		return 0
	}
	return p.buf[0]
}
func (p *persistReader) u32() uint32 {
	if !p.read(p.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(p.buf[:4])
}
func (p *persistReader) i32() int32 { return int32(p.u32()) }
func (p *persistReader) u64() uint64 {
	if !p.read(p.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(p.buf[:8])
}
func (p *persistReader) f64() float64 { return math.Float64frombits(p.u64()) }
func (p *persistReader) vec3() geom.Vec3 {
	return geom.Vec3{X: p.f64(), Y: p.f64(), Z: p.f64()}
}
func (p *persistReader) mbr() geom.MBR {
	return geom.MBR{MinX: p.f64(), MinY: p.f64(), MaxX: p.f64(), MaxY: p.f64()}
}

// clampCap bounds the initial capacity of count-prefixed slices read from
// untrusted snapshots: the slice still grows to the true count via append,
// but a forged header can no longer demand gigabytes up front.
func clampCap(n int) int {
	const maxInitial = 1 << 16
	if n > maxInitial {
		return maxInitial
	}
	return n
}

// Save writes a snapshot of the terrain database (including the installed
// objects, if any) to w in the current (v4) format.
func (db *TerrainDB) Save(w io.Writer) error {
	objs, epoch, dxy := db.snapshotObjects()
	return db.save(w, objs, epoch, dxy)
}

// SaveWithObjects writes a v4 snapshot whose object section holds exactly
// objs at the given epoch in place of the database's installed object set.
// This is the shard tiler's primitive: the shared terrain structures are
// re-emitted per tile with only that tile's object partition, without ever
// copying or mutating the source TerrainDB. The Dxy buffers are bulk-packed
// over objs in slice order, so loading the shard reproduces NewAt(objs,
// epoch) bit for bit.
func (db *TerrainDB) SaveWithObjects(w io.Writer, objs []workload.Object, epoch uint64) error {
	return db.save(w, objs, epoch, objstore.BulkIndex(objs).Flatten())
}

// snapshotObjects captures the installed object set — epoch number, table
// and packed Dxy buffers — under one pin, so a save racing concurrent
// updates still writes one consistent version.
func (db *TerrainDB) snapshotObjects() ([]workload.Object, uint64, index.Flat) {
	if db.store == nil {
		return nil, 0, index.Flat{}
	}
	e := db.store.Pin()
	epoch := e.Seq()
	objs := e.Table()
	dxy := e.IndexFlat()
	e.Release() // Table()/IndexFlat() snapshot immutable state; safe after release
	return objs, epoch, dxy
}

func (db *TerrainDB) save(w io.Writer, objs []workload.Object, epoch uint64, dxy index.Flat) error {
	pw := &persistWriter{w: bufio.NewWriter(w)}
	pw.write(dbMagic[:])

	// Mesh.
	m := db.Mesh
	pw.u32(uint32(m.NumVerts()))
	for _, v := range m.Verts {
		pw.vec3(v)
	}
	pw.u32(uint32(m.NumFaces()))
	for _, f := range m.Faces {
		pw.i32(int32(f[0]))
		pw.i32(int32(f[1]))
		pw.i32(int32(f[2]))
	}

	// DDM tree.
	t := db.Tree
	pw.u32(uint32(t.NumLeaves))
	pw.u32(uint32(len(t.Nodes)))
	for _, n := range t.Nodes {
		pw.i32(int32(n.Parent))
		pw.i32(int32(n.Left))
		pw.i32(int32(n.Right))
		pw.f64(n.Error)
		pw.i32(int32(n.Rep))
		pw.vec3(n.RepPos)
		pw.vec3(n.Pos)
		pw.f64(n.Gather)
		pw.i32(n.Birth)
		pw.i32(n.Death)
		pw.mbr(n.MBR)
	}
	pw.u32(uint32(len(t.Edges)))
	for _, e := range t.Edges {
		pw.i32(int32(e.U))
		pw.i32(int32(e.W))
		pw.f64(e.D)
		pw.i32(e.Birth)
		pw.i32(e.Death)
	}

	// MSDN.
	pw.f64(db.MSDN.Spacing)
	for _, fam := range [][]*sdn.CrossLine{db.MSDN.XLines, db.MSDN.YLines} {
		pw.u32(uint32(len(fam)))
		for _, cl := range fam {
			pw.u32(uint32(cl.Axis))
			pw.f64(cl.Coord)
			pw.u32(uint32(len(cl.Pts)))
			for i, pt := range cl.Pts {
				pw.vec3(pt)
				pw.u32(uint32(cl.Rank[i]))
			}
		}
	}

	// Objects: the epoch number and table supplied by the caller
	// (Save/SaveWithObjects); their Dxy index buffers follow the pathnet.
	pw.u64(epoch)
	pw.u32(uint32(len(objs)))
	for _, o := range objs {
		pw.u64(uint64(o.ID))
		pw.vec3(o.Point.Pos)
		pw.i32(int32(o.Point.Face))
	}

	// Pathnet flat buffers: CSR offsets and arcs, vertex positions, the
	// Steiner level and the face→point CSR pair.
	pf := db.Path.Flatten()
	pw.u32(uint32(len(pf.Off)))
	for _, v := range pf.Off {
		pw.i32(v)
	}
	pw.u32(uint32(len(pf.Arcs)))
	for _, a := range pf.Arcs {
		pw.i32(a.To)
		pw.f64(a.W)
	}
	pw.u32(uint32(len(pf.Pos)))
	for _, v := range pf.Pos {
		pw.vec3(v)
	}
	pw.u32(uint32(pf.Steiner))
	pw.u32(uint32(len(pf.FaceOff)))
	for _, v := range pf.FaceOff {
		pw.i32(v)
	}
	pw.u32(uint32(len(pf.FacePts)))
	for _, v := range pf.FacePts {
		pw.i32(v)
	}

	// Dxy R-tree flat buffers: the four node-parallel arrays interleaved
	// per node, then the item slab. Empty when no objects are installed.
	pw.u32(uint32(len(dxy.Leaf)))
	for i := range dxy.Leaf {
		var leaf uint8
		if dxy.Leaf[i] {
			leaf = 1
		}
		pw.u8(leaf)
		pw.mbr(dxy.MBR[i])
		pw.i32(dxy.Start[i])
		pw.i32(dxy.Count[i])
	}
	pw.u32(uint32(len(dxy.Items)))
	for _, it := range dxy.Items {
		pw.f64(it.P.X)
		pw.f64(it.P.Y)
		pw.u64(uint64(it.ID))
	}

	if pw.err != nil {
		return fmt.Errorf("core: save: %w", pw.err)
	}
	// Integrity footer: CRC-32C over everything written above (the footer
	// itself is excluded).
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], pw.crc)
	if _, err := pw.w.Write(sum[:]); err != nil {
		return fmt.Errorf("core: save: %w", err)
	}
	return pw.w.Flush()
}

// Load reconstructs a terrain database from a snapshot. cfg provides the
// runtime knobs (pool size, page cost, Steiner level) exactly as for
// BuildTerrainDB; the derived structures are rebuilt deterministically.
func Load(r io.Reader, cfg Config) (*TerrainDB, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	pr := &persistReader{r: bufio.NewReader(r)}
	var magic [8]byte
	if !pr.read(magic[:]) {
		return nil, fmt.Errorf("core: load: %w", pr.err)
	}
	v4 := magic == dbMagic
	if !v4 && magic != dbMagicV3 {
		return nil, fmt.Errorf("core: load: %w: magic %q", ErrBadSnapshot, magic)
	}

	// Counts are read from untrusted input: validate them against
	// plausibility caps, and grow slices incrementally with a bounded
	// initial capacity so a forged header cannot demand a huge allocation
	// before the stream runs dry (each loop bails on the first read error).

	// Mesh.
	nv := int(pr.u32())
	if pr.err != nil {
		return nil, fmt.Errorf("core: load: vertex count: %w", pr.err)
	}
	if nv < 3 || nv > 1<<28 {
		return nil, fmt.Errorf("core: load: %w: implausible vertex count %d", ErrBadSnapshot, nv)
	}
	verts := make([]geom.Vec3, 0, clampCap(nv))
	for i := 0; i < nv; i++ {
		verts = append(verts, pr.vec3())
		if pr.err != nil {
			return nil, fmt.Errorf("core: load: vertices: %w", pr.err)
		}
	}
	nf := int(pr.u32())
	if pr.err != nil {
		return nil, fmt.Errorf("core: load: face count: %w", pr.err)
	}
	if nf < 1 || nf > 1<<29 {
		return nil, fmt.Errorf("core: load: %w: implausible face count %d", ErrBadSnapshot, nf)
	}
	faces := make([][3]mesh.VertexID, 0, clampCap(nf))
	for i := 0; i < nf; i++ {
		faces = append(faces, [3]mesh.VertexID{
			mesh.VertexID(pr.i32()), mesh.VertexID(pr.i32()), mesh.VertexID(pr.i32()),
		})
		if pr.err != nil {
			return nil, fmt.Errorf("core: load: faces: %w", pr.err)
		}
	}
	for _, f := range faces {
		for _, v := range f {
			if int(v) < 0 || int(v) >= nv {
				return nil, fmt.Errorf("core: load: %w: face vertex %d outside [0,%d)", ErrBadSnapshot, v, nv)
			}
		}
	}
	m := mesh.New(verts, faces)

	// DDM tree.
	tree := &multires.Tree{NumLeaves: int(pr.u32())}
	nn := int(pr.u32())
	if pr.err != nil {
		return nil, fmt.Errorf("core: load: tree header: %w", pr.err)
	}
	if tree.NumLeaves < 1 || tree.NumLeaves > 1<<28 || nn != 2*tree.NumLeaves-1 {
		return nil, fmt.Errorf("core: load: %w: node count %d for %d leaves", ErrBadSnapshot, nn, tree.NumLeaves)
	}
	tree.Nodes = make([]multires.Node, 0, clampCap(nn))
	for i := 0; i < nn; i++ {
		tree.Nodes = append(tree.Nodes, multires.Node{
			Parent: multires.NodeID(pr.i32()),
			Left:   multires.NodeID(pr.i32()),
			Right:  multires.NodeID(pr.i32()),
			Error:  pr.f64(),
			Rep:    mesh.VertexID(pr.i32()),
			RepPos: pr.vec3(),
			Pos:    pr.vec3(),
			Gather: pr.f64(),
			Birth:  pr.i32(),
			Death:  pr.i32(),
			MBR:    pr.mbr(),
		})
		if pr.err != nil {
			return nil, fmt.Errorf("core: load: tree nodes: %w", pr.err)
		}
	}
	ne := int(pr.u32())
	if pr.err != nil {
		return nil, fmt.Errorf("core: load: edge count: %w", pr.err)
	}
	if ne < 0 || ne > 1<<29 {
		return nil, fmt.Errorf("core: load: %w: implausible edge count %d", ErrBadSnapshot, ne)
	}
	tree.Edges = make([]multires.EdgeRec, 0, clampCap(ne))
	for i := 0; i < ne; i++ {
		tree.Edges = append(tree.Edges, multires.EdgeRec{
			U:     multires.NodeID(pr.i32()),
			W:     multires.NodeID(pr.i32()),
			D:     pr.f64(),
			Birth: pr.i32(),
			Death: pr.i32(),
		})
		if pr.err != nil {
			return nil, fmt.Errorf("core: load: tree edges: %w", pr.err)
		}
	}
	tree.SetMaxTime(int32(tree.NumLeaves - 1))
	if err := tree.Validate(); err != nil {
		return nil, fmt.Errorf("core: load: %w: %v", ErrBadSnapshot, err)
	}

	// MSDN.
	ms := &sdn.MSDN{Spacing: pr.f64()}
	for fam := 0; fam < 2; fam++ {
		count := int(pr.u32())
		if pr.err != nil {
			return nil, fmt.Errorf("core: load: MSDN header: %w", pr.err)
		}
		if count < 0 || count > 1<<24 {
			return nil, fmt.Errorf("core: load: %w: implausible line count %d", ErrBadSnapshot, count)
		}
		lines := make([]*sdn.CrossLine, 0, clampCap(count))
		for li := 0; li < count; li++ {
			cl := &sdn.CrossLine{
				Axis:  sdn.Axis(pr.u32()),
				Coord: pr.f64(),
			}
			np := int(pr.u32())
			if pr.err != nil {
				return nil, fmt.Errorf("core: load: cross-line header: %w", pr.err)
			}
			if np < 0 || np > 1<<26 {
				return nil, fmt.Errorf("core: load: %w: implausible line size %d", ErrBadSnapshot, np)
			}
			cl.Pts = make([]geom.Vec3, 0, clampCap(np))
			cl.Rank = make([]int, 0, clampCap(np))
			for i := 0; i < np; i++ {
				cl.Pts = append(cl.Pts, pr.vec3())
				cl.Rank = append(cl.Rank, int(pr.u32()))
				if pr.err != nil {
					return nil, fmt.Errorf("core: load: cross-line points: %w", pr.err)
				}
			}
			lines = append(lines, cl)
		}
		if fam == 0 {
			ms.XLines = lines
		} else {
			ms.YLines = lines
		}
	}
	if err := ms.Validate(); err != nil {
		return nil, fmt.Errorf("core: load: %w: %v", ErrBadSnapshot, err)
	}

	// Objects.
	epoch := pr.u64()
	nObj := int(pr.u32())
	if pr.err != nil {
		return nil, fmt.Errorf("core: load: object count: %w", pr.err)
	}
	if nObj < 0 || nObj > 1<<28 {
		return nil, fmt.Errorf("core: load: %w: implausible object count %d", ErrBadSnapshot, nObj)
	}
	var objs []workload.Object
	for i := 0; i < nObj; i++ {
		objs = append(objs, workload.Object{
			ID: int64(pr.u64()),
			Point: mesh.SurfacePoint{
				Pos:  pr.vec3(),
				Face: mesh.FaceID(pr.i32()),
			},
		})
		if pr.err != nil {
			return nil, fmt.Errorf("core: load: objects: %w", pr.err)
		}
		if f := int(objs[i].Point.Face); f < 0 || f >= nf {
			return nil, fmt.Errorf("core: load: %w: object face %d outside [0,%d)", ErrBadSnapshot, f, nf)
		}
	}

	// v4 tail: the pathnet and Dxy flat buffers.
	var (
		path *pathnet.Pathnet
		dxy  *index.RTree
	)
	if v4 {
		var pf pathnet.Flat
		var err error
		if pf, err = loadPathnetFlat(pr, nf); err != nil {
			return nil, err
		}
		if dxy, err = loadIndexFlat(pr, nObj); err != nil {
			return nil, err
		}
		path = pathnet.FromFlat(m, pf)
	}

	// Integrity footer: the stored CRC-32C must match everything read
	// above. Structural checks cannot see a flipped bit inside a float
	// payload; this can.
	want := pr.crc
	var sum [4]byte
	if _, err := io.ReadFull(pr.r, sum[:]); err != nil {
		return nil, fmt.Errorf("core: load: checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return nil, fmt.Errorf("core: load: %w: checksum mismatch (stored %08x, computed %08x)", ErrBadSnapshot, got, want)
	}

	db := assembleTerrainDB(m, tree, ms, path, cfg)
	if !v4 {
		db.formatVersion = 3
	}
	// Restore the object store at the saved epoch. A non-zero epoch with an
	// empty table is legitimate (everything was deleted); only a snapshot
	// that never had objects leaves the store uninstalled. A v4 snapshot
	// carries the packed Dxy buffers, so the restore skips the STR bulk pack.
	if nObj > 0 || epoch > 0 {
		if v4 {
			db.store = objstore.NewAtWithIndex(objs, epoch, dxy)
		} else {
			db.SetObjectsAt(objs, epoch)
		}
	}
	return db, nil
}

// loadPathnetFlat reads the v4 pathnet section, validating every index
// against the buffers it points into. nf is the mesh face count (bounds the
// face-point CSR).
func loadPathnetFlat(pr *persistReader, nf int) (pathnet.Flat, error) {
	var pf pathnet.Flat
	bad := func(format string, args ...any) (pathnet.Flat, error) {
		return pf, fmt.Errorf("core: load: %w: "+format, append([]any{ErrBadSnapshot}, args...)...)
	}

	nOff := int(pr.u32())
	if pr.err != nil {
		return pf, fmt.Errorf("core: load: pathnet header: %w", pr.err)
	}
	if nOff < 1 || nOff > 1<<28 {
		return bad("implausible pathnet offset count %d", nOff)
	}
	pf.Off = make([]int32, 0, clampCap(nOff))
	for i := 0; i < nOff; i++ {
		pf.Off = append(pf.Off, pr.i32())
		if pr.err != nil {
			return pf, fmt.Errorf("core: load: pathnet offsets: %w", pr.err)
		}
	}
	nArcs := int(pr.u32())
	if pr.err != nil {
		return pf, fmt.Errorf("core: load: pathnet arc count: %w", pr.err)
	}
	if nArcs < 0 || nArcs > 1<<30 {
		return bad("implausible pathnet arc count %d", nArcs)
	}
	pf.Arcs = make([]graph.Arc, 0, clampCap(nArcs))
	for i := 0; i < nArcs; i++ {
		pf.Arcs = append(pf.Arcs, graph.Arc{To: pr.i32(), W: pr.f64()})
		if pr.err != nil {
			return pf, fmt.Errorf("core: load: pathnet arcs: %w", pr.err)
		}
	}
	nPos := int(pr.u32())
	if pr.err != nil {
		return pf, fmt.Errorf("core: load: pathnet position count: %w", pr.err)
	}
	if nPos != nOff-1 {
		return bad("pathnet has %d positions for %d offsets", nPos, nOff)
	}
	pf.Pos = make([]geom.Vec3, 0, clampCap(nPos))
	for i := 0; i < nPos; i++ {
		pf.Pos = append(pf.Pos, pr.vec3())
		if pr.err != nil {
			return pf, fmt.Errorf("core: load: pathnet positions: %w", pr.err)
		}
	}
	pf.Steiner = int(pr.u32())

	// CSR shape: offsets must be a monotone cover of the arc slab, and every
	// arc endpoint must be a vertex.
	if int(pf.Off[0]) != 0 || int(pf.Off[nOff-1]) != nArcs {
		return bad("pathnet offsets do not cover %d arcs", nArcs)
	}
	for i := 1; i < nOff; i++ {
		if pf.Off[i] < pf.Off[i-1] {
			return bad("pathnet offsets not monotone at %d", i)
		}
	}
	for _, a := range pf.Arcs {
		if int(a.To) < 0 || int(a.To) >= nPos {
			return bad("pathnet arc to vertex %d outside [0,%d)", a.To, nPos)
		}
	}

	nFaceOff := int(pr.u32())
	if pr.err != nil {
		return pf, fmt.Errorf("core: load: face-point header: %w", pr.err)
	}
	if nFaceOff != nf+1 {
		return bad("face-point offset count %d for %d faces", nFaceOff, nf)
	}
	pf.FaceOff = make([]int32, 0, clampCap(nFaceOff))
	for i := 0; i < nFaceOff; i++ {
		pf.FaceOff = append(pf.FaceOff, pr.i32())
		if pr.err != nil {
			return pf, fmt.Errorf("core: load: face-point offsets: %w", pr.err)
		}
	}
	nFacePts := int(pr.u32())
	if pr.err != nil {
		return pf, fmt.Errorf("core: load: face-point count: %w", pr.err)
	}
	if nFacePts < 0 || nFacePts > 1<<30 {
		return bad("implausible face-point count %d", nFacePts)
	}
	pf.FacePts = make([]int32, 0, clampCap(nFacePts))
	for i := 0; i < nFacePts; i++ {
		pf.FacePts = append(pf.FacePts, pr.i32())
		if pr.err != nil {
			return pf, fmt.Errorf("core: load: face points: %w", pr.err)
		}
	}
	if int(pf.FaceOff[0]) != 0 || int(pf.FaceOff[nFaceOff-1]) != nFacePts {
		return bad("face-point offsets do not cover %d points", nFacePts)
	}
	for i := 1; i < nFaceOff; i++ {
		if pf.FaceOff[i] < pf.FaceOff[i-1] {
			return bad("face-point offsets not monotone at %d", i)
		}
	}
	for _, v := range pf.FacePts {
		if int(v) < 0 || int(v) >= nPos {
			return bad("face point %d outside [0,%d)", v, nPos)
		}
	}
	return pf, nil
}

// loadIndexFlat reads the v4 Dxy R-tree section into a tree. nObj is the
// object count read earlier; the item slab must index exactly that set. The
// node layout itself is index.FromFlat's to judge.
func loadIndexFlat(pr *persistReader, nObj int) (*index.RTree, error) {
	var f index.Flat
	bad := func(format string, args ...any) (*index.RTree, error) {
		return nil, fmt.Errorf("core: load: %w: "+format, append([]any{ErrBadSnapshot}, args...)...)
	}

	nNodes := int(pr.u32())
	if pr.err != nil {
		return nil, fmt.Errorf("core: load: index header: %w", pr.err)
	}
	if nNodes < 0 || nNodes > 1<<28 {
		return bad("implausible index node count %d", nNodes)
	}
	f.Leaf = make([]bool, 0, clampCap(nNodes))
	f.MBR = make([]geom.MBR, 0, clampCap(nNodes))
	f.Start = make([]int32, 0, clampCap(nNodes))
	f.Count = make([]int32, 0, clampCap(nNodes))
	for i := 0; i < nNodes; i++ {
		f.Leaf = append(f.Leaf, pr.u8() != 0)
		f.MBR = append(f.MBR, pr.mbr())
		f.Start = append(f.Start, pr.i32())
		f.Count = append(f.Count, pr.i32())
		if pr.err != nil {
			return nil, fmt.Errorf("core: load: index nodes: %w", pr.err)
		}
	}
	nItems := int(pr.u32())
	if pr.err != nil {
		return nil, fmt.Errorf("core: load: index item count: %w", pr.err)
	}
	if nItems != nObj {
		return bad("index holds %d items for %d objects", nItems, nObj)
	}
	f.Items = make([]index.Item, 0, clampCap(nItems))
	for i := 0; i < nItems; i++ {
		f.Items = append(f.Items, index.Item{
			P:  geom.Vec2{X: pr.f64(), Y: pr.f64()},
			ID: int64(pr.u64()),
		})
		if pr.err != nil {
			return nil, fmt.Errorf("core: load: index items: %w", pr.err)
		}
	}
	t, err := index.FromFlat(f)
	if err != nil {
		return bad("%v", err)
	}
	return t, nil
}

// SaveFile writes the snapshot to the named file.
func (db *TerrainDB) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadFile reads a snapshot from the named file.
func LoadFile(path string, cfg Config) (*TerrainDB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	defer f.Close()
	return Load(f, cfg)
}
