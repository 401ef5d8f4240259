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

// materialize does to tr what core's assembly does: it sorts one record
// per edge into clustered storage order, reads the order off the sorted
// record slice and materialises the ladder's level networks in it.
func materialize(t testing.TB, tr *Tree) {
	t.Helper()
	recs := make([]storage.ClusterRecord, len(tr.Edges))
	for i, e := range tr.Edges {
		minX, minY, maxX, maxY := tr.EdgeMBR(e)
		recs[i] = storage.ClusterRecord{ID: uint64(i), MBR: geom.MBR{MinX: minX, MinY: minY, MaxX: maxX, MaxY: maxY}, From: e.Birth, To: e.Death}
	}
	storage.SortClustered(recs)
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
// whole level network extracted as a private graph, both points embedded, a
// target-stopped Dijkstra.
func refUpperBound(f estimatorFixture, a, b mesh.SurfacePoint, tm int32) UpperEstimate {
	return f.tr.UpperBound(f.m, a, b, tm, IncludeAll)
}

// sameEstimate holds one streamed answer to the contract: got is want.UB bit
// for bit, and every node p of want's path satisfies |ap| + |pb| <= UB in
// the plane (relative tolerance 1e-9), so an adopted path lies inside the
// ellipse whose I/O region the ranker already paid for.
func sameEstimate(t *testing.T, what string, f estimatorFixture, a, b mesh.SurfacePoint, got float64, want UpperEstimate) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want.UB) {
		t.Fatalf("%s: UB %v, reference %v", what, got, want.UB)
	}
	for _, v := range want.Path {
		p := f.tr.Nodes[v].RepPos.XY()
		if span := a.XY().Dist(p) + p.Dist(b.XY()); span > want.UB*(1+1e-9) {
			t.Fatalf("%s: path node %d at %v spans %v, beyond its bound %v", what, v, p, span, want.UB)
		}
	}
}

// pairPoint returns a target for source a chosen by kind: a random face
// point, a point of a's own face, a point of a face sharing a corner with
// a's (hence a corner ancestor), or a mesh vertex, where on flat ground many
// paths tie exactly.
func pairPoint(m *mesh.Mesh, a mesh.SurfacePoint, kind int, rng *rand.Rand) mesh.SurfacePoint {
	switch kind % 4 {
	case 1:
		return facePoint(m, a.Face, rng)
	case 2:
		faces := m.FacesOfVertex(a.Corners(m)[rng.Intn(3)])
		return facePoint(m, faces[rng.Intn(len(faces))], rng)
	case 3:
		return vertexPoint(m, rng)
	}
	return facePoint(m, mesh.FaceID(rng.Intn(m.NumFaces())), rng)
}

// TestEstimatorMatchesNetwork pins the Estimator's guarantee: on every
// fixture, at every ladder time, over random point pairs — and the named
// corner cases — its upper bounds are bit-identical to
// Tree.UpperBound(IncludeAll), and the reference path stays inside the
// pair's ellipse.
func TestEstimatorMatchesNetwork(t *testing.T) {
	for _, f := range estimatorFixtures(t) {
		t.Run(f.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(78))
			est := NewEstimator(f.tr)
			times := f.times()
			if f.name == "tiny" && len(times) >= len(dmtmLadder) {
				t.Fatalf("ladder times %v: no two rungs share a collapse time", times)
			}
			withPath := 0
			for _, tm := range times {
				for trial := 0; trial < 48; trial++ {
					a := facePoint(f.m, mesh.FaceID(rng.Intn(f.m.NumFaces())), rng)
					if trial%8 == 3 {
						a = vertexPoint(f.m, rng)
					}
					b := pairPoint(f.m, a, trial, rng)
					want := refUpperBound(f, a, b, tm)
					sameEstimate(t, "", f, a, b, est.UpperBound(f.m, a, b, tm), want)
					if len(want.Path) > 0 {
						withPath++
					}
				}
			}
			// Vertex to vertex over the whole terrain: on flat ground a few
			// pairs in a thousand have two shortest paths of one float length.
			for _, tm := range times {
				for trial := 0; trial < 200; trial++ {
					a, b := vertexPoint(f.m, rng), vertexPoint(f.m, rng)
					sameEstimate(t, "vertex pair", f, a, b, est.UpperBound(f.m, a, b, tm), refUpperBound(f, a, b, tm))
				}
			}
			if withPath == 0 || est.SharedSettled == 0 {
				t.Fatalf("%d estimates with a path, %d vertices settled: a case is not exercised", withPath, est.SharedSettled)
			}
		})
	}
}

// TestEstimatorReusableAcrossLevels: an estimation does not depend on what
// the estimator ran before — other levels, the reverse pair — and a warm
// estimator allocates nothing.
func TestEstimatorReusableAcrossLevels(t *testing.T) {
	f := estimatorFixtures(t)[1]
	rng := rand.New(rand.NewSource(9))
	a := facePoint(f.m, 3, rng)
	b := facePoint(f.m, mesh.FaceID(f.m.NumFaces()-4), rng)
	ladder := f.times()

	warm := NewEstimator(f.tr)
	for _, tm := range ladder { // dirty the warm estimator
		warm.UpperBound(f.m, a, b, tm)
		warm.UpperBound(f.m, b, a, tm)
	}
	for _, tm := range ladder {
		fresh := NewEstimator(f.tr).UpperBound(f.m, a, b, tm)
		if math.IsInf(fresh, 1) {
			t.Fatalf("time %d: no estimate over the whole terrain", tm)
		}
		sameEstimate(t, "warm against fresh", f, a, b, warm.UpperBound(f.m, a, b, tm), UpperEstimate{UB: fresh})
	}

	if raceEnabled {
		return // allocation counts are unreliable under -race
	}
	if n := testing.AllocsPerRun(20, func() {
		for _, tm := range ladder {
			warm.UpperBound(f.m, a, b, tm)
		}
	}); n != 0 {
		t.Fatalf("warm estimator allocates %.1f times, want 0", n)
	}
}
