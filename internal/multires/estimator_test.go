package multires

import (
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/storage"
)

// dmtmLadder is core.DMTMLadder (core imports this package): the DMTM
// resolutions whose level networks assembly materialises.
var dmtmLadder = []float64{0.005, 0.25, 0.5, 0.75, 1.0}

// materialize does to tr what core's assembly does: it stores one record
// per edge in a clustered store, reads the storage order off the sorted
// record slice and materialises the ladder's level networks in it.
func materialize(t testing.TB, tr *Tree) {
	t.Helper()
	recs := make([]storage.ClusterRecord, len(tr.Edges))
	for i, e := range tr.Edges {
		minX, minY, maxX, maxY := tr.EdgeMBR(e)
		recs[i] = storage.ClusterRecord{ID: uint64(i), MBR: geom.MBR{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}, From: e.Birth, To: e.Death}
	}
	storage.BuildClustered(storage.NewBufferPool(storage.NewMemFile(), 64), recs)
	order := make([]int32, len(recs))
	for i, r := range recs {
		order[i] = int32(r.ID)
	}
	times := make([]int32, len(dmtmLadder))
	for i, res := range dmtmLadder {
		times[i] = tr.TimeForResolution(res)
	}
	tr.Materialize(order, times)
}

type estimatorFixture struct {
	name string
	m    *mesh.Mesh
	tr   *Tree
}

// estimatorFixtures: a rugged, a smooth and a flat terrain, and the smallest
// one the builder accepts (3×3 samples), on which the ladder's 0.5 % and
// 25 % rungs round to one collapse time.
func estimatorFixtures(t testing.TB) []estimatorFixture {
	t.Helper()
	meshes := []struct {
		name string
		m    *mesh.Mesh
	}{
		{"BH", mesh.FromGrid(dem.Synthesize(dem.BH, 16, 10, 77))},
		{"EP", mesh.FromGrid(dem.Synthesize(dem.EP, 16, 10, 78))},
		{"FLAT", mesh.FromGrid(dem.NewGrid(17, 17, 10))},
		{"tiny", mesh.FromGrid(dem.Synthesize(dem.BH, 2, 10, 79))},
	}
	var out []estimatorFixture
	for _, f := range meshes {
		tr, err := BuildFromMesh(f.m)
		if err != nil {
			t.Fatal(err)
		}
		materialize(t, tr)
		out = append(out, estimatorFixture{f.name, f.m, tr})
	}
	return out
}

// times returns the ladder's distinct collapse times.
func (f estimatorFixture) times() []int32 {
	var ladder []int32
	seen := map[int32]bool{}
	for _, res := range dmtmLadder {
		if tm := f.tr.TimeForResolution(res); !seen[tm] {
			seen[tm] = true
			ladder = append(ladder, tm)
		}
	}
	return ladder
}

// facePoint returns a random point of face f.
func facePoint(m *mesh.Mesh, f mesh.FaceID, rng *rand.Rand) mesh.SurfacePoint {
	wa, wb := rng.Float64(), rng.Float64()
	if wa+wb > 1 {
		wa, wb = 1-wa, 1-wb
	}
	tri := m.Triangle(f)
	return mesh.SurfacePoint{Pos: tri.A.Scale(wa).Add(tri.B.Scale(wb)).Add(tri.C.Scale(1 - wa - wb)), Face: f}
}

// vertexPoint returns a surface point sitting on a random mesh vertex.
func vertexPoint(m *mesh.Mesh, rng *rand.Rand) mesh.SurfacePoint {
	v := mesh.VertexID(rng.Intn(m.NumVerts()))
	faces := m.FacesOfVertex(v)
	return mesh.SurfacePoint{Pos: m.Verts[v], Face: faces[rng.Intn(len(faces))]}
}

// refUpperBound is the allocating pipeline the estimator is held to: the
// edges, in storage order, whose rectangle (Tree.EdgeMBR) meets region and —
// when refined is not empty — one refined rectangle, materialised as a
// private network, both points embedded, a target-stopped Dijkstra.
func refUpperBound(f estimatorFixture, a, b mesh.SurfacePoint, tm int32, region geom.MBR, refined []geom.MBR) UpperEstimate {
	filter := func(e EdgeRec) bool {
		minX, minY, maxX, maxY := f.tr.EdgeMBR(e)
		em := geom.MBR{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}
		if !em.Intersects(region) {
			return false
		}
		for _, r := range refined {
			if r.Intersects(em) {
				return true
			}
		}
		return len(refined) == 0
	}
	return f.tr.NetworkFromEdgeIDs(tm, f.tr.order, filter).UpperBound(f.m, a, b)
}

func sameEstimate(t *testing.T, what string, got, want UpperEstimate) {
	t.Helper()
	if math.Float64bits(got.UB) != math.Float64bits(want.UB) {
		t.Fatalf("%s: UB %v, reference %v", what, got.UB, want.UB)
	}
	if len(got.Path) != len(want.Path) {
		t.Fatalf("%s: path %v, reference %v", what, got.Path, want.Path)
	}
	for i := range got.Path {
		if got.Path[i] != want.Path[i] {
			t.Fatalf("%s: path %v, reference %v", what, got.Path, want.Path)
		}
	}
}

// TestEstimatorMatchesNetwork pins the Estimator's guarantee: on every
// fixture, at every ladder time, over random point pairs, regions and
// refined regions — and the named corner cases — its upper bounds and node
// paths are bit-identical to NetworkFromEdgeIDs(ids passing the filter, in
// storage order) → Embed → UpperBound.
func TestEstimatorMatchesNetwork(t *testing.T) {
	inf := math.Inf(1)
	everything := geom.MBR{MinX: -inf, MinY: -inf, MaxX: inf, MaxY: inf}
	for _, f := range estimatorFixtures(t) {
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(78))
			ext := f.m.Extent()
			est := NewEstimator(f.tr)
			box := func(c geom.Vec2, frac float64) geom.MBR {
				return geom.MBR{MinX: c.X - ext.Width()*frac, MinY: c.Y - ext.Height()*frac,
					MaxX: c.X + ext.Width()*frac, MaxY: c.Y + ext.Height()*frac}
			}
			randomBox := func(frac float64) geom.MBR {
				return box(geom.Vec2{X: ext.MinX + rng.Float64()*ext.Width(), Y: ext.MinY + rng.Float64()*ext.Height()}, frac)
			}
			times := f.times()
			if f.name == "tiny" && len(times) >= len(dmtmLadder) {
				t.Fatalf("ladder times %v: no two rungs share a collapse time", times)
			}
			finite, infinite, withPath := 0, 0, 0
			for _, tm := range times {
				for trial := 0; trial < 48; trial++ {
					a := facePoint(f.m, mesh.FaceID(rng.Intn(f.m.NumFaces())), rng)
					b := facePoint(f.m, mesh.FaceID(rng.Intn(f.m.NumFaces())), rng)
					switch trial % 8 {
					case 1: // same face
						b = facePoint(f.m, a.Face, rng)
					case 2: // faces sharing a corner, hence a corner ancestor
						faces := f.m.FacesOfVertex(a.Corners(f.m)[rng.Intn(3)])
						b = facePoint(f.m, faces[rng.Intn(len(faces))], rng)
					case 3, 4: // on mesh vertices: on flat ground many paths tie
						// exactly, and arc order alone picks the predecessor
						a, b = vertexPoint(f.m, rng), vertexPoint(f.m, rng)
					}
					var region geom.MBR
					switch trial % 6 {
					case 0, 1:
						region = ext
					case 2: // the ellipse rectangle of a loose bound
						region = geom.NewEllipse(a.XY(), b.XY(), 1.5*a.Pos.Dist(b.Pos)).MBR()
					case 3:
						region = randomBox(0.3)
					case 4: // cuts off a (or b)
						region = box(b.XY(), 0.1)
						if trial%12 == 4 {
							region = box(a.XY(), 0.1)
						}
					case 5:
						region = geom.EmptyMBR()
						if trial%12 == 5 {
							region = randomBox(0.5)
						}
					}
					var refined []geom.MBR
					switch trial % 7 {
					case 1, 2, 3: // a few boxes, as a coarse path leaves
						for i := 0; i <= trial%7; i++ {
							refined = append(refined, randomBox(0.15))
						}
					case 4: // an empty rectangle among them
						refined = []geom.MBR{randomBox(0.3), geom.EmptyMBR(), randomBox(0.3)}
					case 5: // nothing but an empty rectangle
						refined = []geom.MBR{geom.EmptyMBR()}
					case 6: // a rectangle holding every point
						refined = []geom.MBR{everything}
					}
					got := est.UpperBound(f.m, a, b, tm, region, refined)
					want := refUpperBound(f, a, b, tm, region, refined)
					sameEstimate(t, "", got, want)
					switch {
					case math.IsInf(got.UB, 1):
						infinite++
					case len(got.Path) > 0:
						withPath++
						fallthrough
					default:
						finite++
					}
				}
			}
			// Vertex to vertex over the whole terrain: on flat ground a few
			// pairs in a thousand have two shortest paths of one float length,
			// and only the arc order decides which the search reports.
			for _, tm := range times {
				for trial := 0; trial < 200; trial++ {
					a, b := vertexPoint(f.m, rng), vertexPoint(f.m, rng)
					sameEstimate(t, "vertex pair", est.UpperBound(f.m, a, b, tm, ext, nil), refUpperBound(f, a, b, tm, ext, nil))
				}
			}
			if finite == 0 || infinite == 0 || withPath == 0 {
				t.Fatalf("%d finite (%d with a path), %d disconnected estimates: a case is not exercised", finite, withPath, infinite)
			}
			if est.Settled == 0 || est.Admitted == 0 || est.Scanned < est.Admitted {
				t.Fatalf("work counters: scanned %d, admitted %d, settled %d", est.Scanned, est.Admitted, est.Settled)
			}
		})
	}
}

// TestEstimatorReusableAcrossLevels: an estimation does not depend on what
// the estimator ran before — other levels, failed searches — and a warm
// estimator allocates nothing.
func TestEstimatorReusableAcrossLevels(t *testing.T) {
	f := estimatorFixtures(t)[1]
	rng := rand.New(rand.NewSource(9))
	ext := f.m.Extent()
	a := facePoint(f.m, 3, rng)
	b := facePoint(f.m, mesh.FaceID(f.m.NumFaces()-4), rng)
	refined := []geom.MBR{ext}
	ladder := f.times()

	warm := NewEstimator(f.tr)
	for _, tm := range ladder { // dirty the warm estimator
		warm.UpperBound(f.m, a, b, tm, ext, nil)
		warm.UpperBound(f.m, b, a, tm, geom.EmptyMBR(), nil)
	}
	for _, tm := range ladder {
		fresh := NewEstimator(f.tr).UpperBound(f.m, a, b, tm, ext, refined)
		if math.IsInf(fresh.UB, 1) {
			t.Fatalf("time %d: no estimate over the whole terrain", tm)
		}
		sameEstimate(t, "warm against fresh", warm.UpperBound(f.m, a, b, tm, ext, refined), fresh)
	}

	if raceEnabled {
		return // allocation counts are unreliable under -race
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, tm := range ladder {
			warm.UpperBound(f.m, a, b, tm, ext, refined)
		}
	}); n != 0 {
		t.Fatalf("warm estimator allocates %.1f times, want 0", n)
	}
}
