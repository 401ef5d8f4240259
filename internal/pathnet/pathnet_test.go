package pathnet

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/mesh"
)

func flatMesh(size int) *mesh.Mesh {
	return mesh.FromGrid(dem.NewGrid(size+1, size+1, 10))
}

func sp(t *testing.T, m *mesh.Mesh, loc *mesh.Locator, x, y float64) mesh.SurfacePoint {
	t.Helper()
	p, err := mesh.MakeSurfacePoint(m, loc, geom.Vec2{X: x, Y: y})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildCounts(t *testing.T) {
	m := flatMesh(2) // 9 verts, 8 faces, 16 edges
	nEdges := len(m.Edges())
	p := Build(m, 1)
	if got, want := p.NumVertices(), m.NumVerts()+nEdges; got != want {
		t.Errorf("pathnet verts = %d, want %d", got, want)
	}
	if p.SteinerPerEdge() != 1 {
		t.Errorf("SteinerPerEdge = %d", p.SteinerPerEdge())
	}
	p0 := Build(m, 0)
	if p0.NumVertices() != m.NumVerts() {
		t.Errorf("0-steiner pathnet verts = %d", p0.NumVertices())
	}
}

func TestFlatTerrainDistanceIsNearEuclidean(t *testing.T) {
	// On a flat terrain the true surface distance equals the 2-D Euclidean
	// distance; the pathnet approximation must be within a few percent and
	// never below it.
	m := flatMesh(8)
	loc := mesh.NewLocator(m)
	a := sp(t, m, loc, 5, 5)
	b := sp(t, m, loc, 72, 63)
	euclid := a.Pos.Dist(b.Pos)
	for steiner, maxOver := range map[int]float64{0: 1.09, 1: 1.05, 3: 1.03} {
		p := Build(m, steiner)
		d, path := p.Distance(a, b)
		if d < euclid-1e-9 {
			t.Errorf("steiner=%d: distance %v below Euclidean %v", steiner, d, euclid)
		}
		if d > euclid*maxOver {
			t.Errorf("steiner=%d: distance %v too far above Euclidean %v", steiner, d, euclid)
		}
		if len(path) < 2 {
			t.Errorf("steiner=%d: path too short: %v", steiner, path)
		}
		if path[0].Dist(a.Pos) > 1e-9 || path[len(path)-1].Dist(b.Pos) > 1e-9 {
			t.Errorf("steiner=%d: path endpoints wrong", steiner)
		}
		// Path length must equal the reported distance.
		if got := geom.PolylineLength(path); math.Abs(got-d) > 1e-9 {
			t.Errorf("steiner=%d: polyline length %v != distance %v", steiner, got, d)
		}
	}
}

func TestMoreSteinerPointsNeverWorse(t *testing.T) {
	m := mesh.FromGrid(dem.Synthesize(dem.BH, 16, 10, 3))
	loc := mesh.NewLocator(m)
	ext := m.Extent()
	rng := rand.New(rand.NewSource(5))
	// Bisection refinement (0, 1, 3 Steiner points) yields nested networks,
	// so distances are monotonically non-increasing. (Non-nested counts like
	// 1 vs 2 need not be comparable pointwise.)
	nets := []*Pathnet{Build(m, 0), Build(m, 1), Build(m, 3)}
	for trial := 0; trial < 10; trial++ {
		a := sp(t, m, loc, ext.MinX+rng.Float64()*ext.Width(), ext.MinY+rng.Float64()*ext.Height())
		b := sp(t, m, loc, ext.MinX+rng.Float64()*ext.Width(), ext.MinY+rng.Float64()*ext.Height())
		prev := math.Inf(1)
		for i, p := range nets {
			d, _ := p.Distance(a, b)
			if d > prev+1e-9 {
				t.Fatalf("refinement %d worsened distance: %v > %v", i, d, prev)
			}
			prev = d
		}
	}
}

func TestSameFaceDistance(t *testing.T) {
	m := flatMesh(4)
	loc := mesh.NewLocator(m)
	a := sp(t, m, loc, 1, 1)
	b := sp(t, m, loc, 2, 2)
	if a.Face != b.Face {
		t.Skip("points landed in different faces")
	}
	p := Build(m, 1)
	d, _ := p.Distance(a, b)
	if math.Abs(d-a.Pos.Dist(b.Pos)) > 1e-12 {
		t.Errorf("same-face distance = %v", d)
	}
}

func TestDistanceReusable(t *testing.T) {
	// The pathnet must return identical results when reused (embedding
	// cleanup works).
	m := mesh.FromGrid(dem.Synthesize(dem.EP, 8, 10, 4))
	loc := mesh.NewLocator(m)
	a := sp(t, m, loc, 8, 9)
	b := sp(t, m, loc, 70, 66)
	p := Build(m, 1)
	nv := p.NumVertices()
	d1, _ := p.Distance(a, b)
	if p.NumVertices() != nv {
		t.Fatalf("vertices leaked: %d -> %d", nv, p.NumVertices())
	}
	d2, _ := p.Distance(a, b)
	if d1 != d2 {
		t.Fatalf("reuse changed result: %v vs %v", d1, d2)
	}
	// And a different pair still works.
	c := sp(t, m, loc, 40, 12)
	d3, _ := p.Distance(a, c)
	if math.IsInf(d3, 1) || d3 <= 0 {
		t.Fatalf("third query broken: %v", d3)
	}
}

func TestDistanceWithin(t *testing.T) {
	m := flatMesh(8)
	loc := mesh.NewLocator(m)
	a := sp(t, m, loc, 5, 40)
	b := sp(t, m, loc, 75, 40)
	p := Build(m, 1)
	free, _ := p.Distance(a, b)
	// Region covering everything: same result.
	d := p.DistanceWithin(a, b, m.Extent())
	if math.Abs(d-free) > 1e-9 {
		t.Errorf("full-region distance %v != free %v", d, free)
	}
	// A narrow corridor that forces a detour (blocks the straight line).
	// Region excludes the middle band except a thin top corridor.
	region := geom.MBR{MinX: 0, MinY: 30, MaxX: 80, MaxY: 80}
	d2 := p.DistanceWithin(a, b, region)
	if d2 < free-1e-9 {
		t.Errorf("restricted distance %v below free %v", d2, free)
	}
	// Disconnecting region: +Inf.
	d3 := p.DistanceWithin(a, b, geom.MBR{MinX: 0, MinY: 0, MaxX: 20, MaxY: 80})
	if !math.IsInf(d3, 1) {
		t.Errorf("disconnected region distance = %v, want Inf", d3)
	}
	// Reusable after DistanceWithin too.
	d4, _ := p.Distance(a, b)
	if math.Abs(d4-free) > 1e-9 {
		t.Errorf("reuse after DistanceWithin: %v != %v", d4, free)
	}
}

func TestPathnetAgainstMeshNetwork(t *testing.T) {
	// Pathnet distance must never exceed the pure mesh network distance
	// (the pathnet contains the mesh edges as subdivided chains).
	m := mesh.FromGrid(dem.Synthesize(dem.BH, 8, 10, 7))
	g := graph.New(m.NumVerts())
	for _, e := range m.Edges() {
		g.AddEdge(int(e.A), int(e.B), m.EdgeLength(e))
	}
	p := Build(m, 1)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 10; trial++ {
		u := rng.Intn(m.NumVerts())
		v := rng.Intn(m.NumVerts())
		if u == v {
			continue
		}
		want, _ := graph.DijkstraTarget(g, u, v)
		got, _ := graph.DijkstraTarget(p.G, u, v)
		if got > want+1e-9 {
			t.Fatalf("pathnet dist %v exceeds mesh network %v", got, want)
		}
	}
}

func TestNegativeSteinerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative steiner count should panic")
		}
	}()
	Build(flatMesh(2), -1)
}

func TestQuerierMatchesDistanceAndReuses(t *testing.T) {
	m := mesh.FromGrid(dem.Synthesize(dem.BH, 8, 10, 9))
	loc := mesh.NewLocator(m)
	p := Build(m, 1)
	qr := p.NewQuerier()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 30; i++ {
		a := sp(t, m, loc, rng.Float64()*79, rng.Float64()*79)
		b := sp(t, m, loc, rng.Float64()*79, rng.Float64()*79)
		want, wantPath := p.Distance(a, b)
		got, gotPath := qr.Distance(a, b)
		if got != want {
			t.Fatalf("query %d: Querier %v != Distance %v", i, got, want)
		}
		if len(gotPath) != len(wantPath) {
			t.Fatalf("query %d: path length %d != %d", i, len(gotPath), len(wantPath))
		}
		region := geom.MBR{MinX: 0, MinY: 0, MaxX: 40 + rng.Float64()*40, MaxY: 80}
		if gw, ww := qr.DistanceWithin(a, b, region), p.DistanceWithin(a, b, region); gw != ww {
			t.Fatalf("query %d: Querier within %v != %v", i, gw, ww)
		}
	}
}

func TestConcurrentQueriers(t *testing.T) {
	// Many goroutines, one shared pathnet, one Querier each (run under
	// -race by the gate). Every goroutine must see the sequential answer.
	m := mesh.FromGrid(dem.Synthesize(dem.EP, 8, 10, 21))
	loc := mesh.NewLocator(m)
	p := Build(m, 1)
	a := sp(t, m, loc, 8, 9)
	b := sp(t, m, loc, 70, 66)
	want, _ := p.Distance(a, b)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			qr := p.NewQuerier()
			for i := 0; i < 20; i++ {
				if got, _ := qr.Distance(a, b); got != want {
					t.Errorf("concurrent distance %v != %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
