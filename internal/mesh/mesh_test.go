package mesh

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
)

// twoTriangleMesh returns a unit square split along the main diagonal.
func twoTriangleMesh() *Mesh {
	verts := []geom.Vec3{
		{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 1, Y: 1, Z: 0}, {X: 0, Y: 1, Z: 0},
	}
	faces := [][3]VertexID{
		{0, 1, 2},
		{0, 2, 3},
	}
	return New(verts, faces)
}

func TestAdjacency(t *testing.T) {
	m := twoTriangleMesh()
	// Face 0 edge 2 is (2,0) = shared diagonal → neighbour face 1.
	if got := m.AdjacentFace(0, 2); got != 1 {
		t.Errorf("AdjacentFace(0,2) = %d, want 1", got)
	}
	// Face 1 edge 0 is (0,2) → neighbour face 0.
	if got := m.AdjacentFace(1, 0); got != 0 {
		t.Errorf("AdjacentFace(1,0) = %d, want 0", got)
	}
	// Boundary edges have no neighbour.
	if got := m.AdjacentFace(0, 0); got != NoFace {
		t.Errorf("AdjacentFace(0,0) = %d, want NoFace", got)
	}
}

func TestFacesOfVertexAndNeighbors(t *testing.T) {
	m := twoTriangleMesh()
	fs := m.FacesOfVertex(0)
	if len(fs) != 2 {
		t.Errorf("vertex 0 incident faces = %v", fs)
	}
	fs = m.FacesOfVertex(1)
	if len(fs) != 1 || fs[0] != 0 {
		t.Errorf("vertex 1 incident faces = %v", fs)
	}
	nb := m.VertexNeighbors(0)
	if len(nb) != 3 {
		t.Errorf("vertex 0 neighbours = %v, want 3 entries", nb)
	}
	nb = m.VertexNeighbors(1)
	if len(nb) != 2 {
		t.Errorf("vertex 1 neighbours = %v, want 2 entries", nb)
	}
}

func TestEdges(t *testing.T) {
	m := twoTriangleMesh()
	edges := m.Edges()
	if len(edges) != 5 {
		t.Fatalf("edge count = %d, want 5", len(edges))
	}
	var diag bool
	for _, e := range edges {
		if e.A == 0 && e.B == 2 {
			diag = true
			if got := m.EdgeLength(e); math.Abs(got-math.Sqrt2) > 1e-12 {
				t.Errorf("diagonal length = %v", got)
			}
		}
		if e.A >= e.B {
			t.Errorf("edge %v not normalised", e)
		}
	}
	if !diag {
		t.Error("missing diagonal edge")
	}
	if got := m.AverageEdgeLength(); got <= 1 || got >= math.Sqrt2 {
		t.Errorf("average edge length = %v out of expected range", got)
	}
}

func TestFromGrid(t *testing.T) {
	g := dem.NewGrid(4, 3, 10)
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			g.Set(c, r, float64(c+r))
		}
	}
	m := FromGrid(g)
	if m.NumVerts() != 12 {
		t.Errorf("verts = %d, want 12", m.NumVerts())
	}
	if m.NumFaces() != 12 { // 3x2 cells * 2
		t.Errorf("faces = %d, want 12", m.NumFaces())
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ext := m.Extent()
	if ext.MaxX != 30 || ext.MaxY != 20 {
		t.Errorf("extent = %v", ext)
	}
}

func TestFromGridSurfaceArea(t *testing.T) {
	// Flat grid: surface area equals planar area.
	g := dem.NewGrid(5, 5, 10)
	m := FromGrid(g)
	if got, want := m.SurfaceArea(), 1600.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("flat surface area = %v, want %v", got, want)
	}
	// A bumpy grid has strictly larger surface area.
	g2 := dem.Synthesize(dem.BH, 8, 10, 5)
	m2 := FromGrid(g2)
	planar := m2.Extent().Area()
	if m2.SurfaceArea() <= planar {
		t.Errorf("rugged surface area %v should exceed planar %v", m2.SurfaceArea(), planar)
	}
}

func TestLocator(t *testing.T) {
	g := dem.NewGrid(5, 5, 10)
	for r := 0; r < 5; r++ {
		for c := 0; c < 5; c++ {
			g.Set(c, r, float64(c)*2)
		}
	}
	m := FromGrid(g)
	loc := NewLocator(m)
	// Interior point.
	f := loc.Locate(geom.Vec2{X: 12, Y: 17})
	if f == NoFace {
		t.Fatal("interior point not located")
	}
	if !m.Triangle(f).ContainsXY(geom.Vec2{X: 12, Y: 17}) {
		t.Error("located face does not contain the point")
	}
	// Outside.
	if got := loc.Locate(geom.Vec2{X: -5, Y: 0}); got != NoFace {
		t.Errorf("outside point located in face %d", got)
	}
	if got := loc.Locate(geom.Vec2{X: 41, Y: 10}); got != NoFace {
		t.Errorf("outside point located in face %d", got)
	}
	// Grid corner and vertex positions.
	if got := loc.Locate(geom.Vec2{X: 0, Y: 0}); got == NoFace {
		t.Error("corner vertex not located")
	}
	// Elevation: plane z = 2x/10·... here z = c*2 with x = 10c → z = x/5.
	z, ok := loc.ElevationAt(geom.Vec2{X: 15, Y: 5})
	if !ok || math.Abs(z-3) > 1e-9 {
		t.Errorf("ElevationAt = %v ok=%v, want 3", z, ok)
	}
	p, ok := loc.SurfacePoint(geom.Vec2{X: 15, Y: 5})
	if !ok || p.Z != z {
		t.Errorf("SurfacePoint = %v ok=%v", p, ok)
	}
	if _, ok := loc.SurfacePoint(geom.Vec2{X: -1, Y: -1}); ok {
		t.Error("SurfacePoint outside should fail")
	}
}

func TestLocatorExhaustive(t *testing.T) {
	// Every sampled interior point must land in a face that contains it.
	g := dem.Synthesize(dem.EP, 16, 10, 2)
	m := FromGrid(g)
	loc := NewLocator(m)
	ext := m.Extent()
	for i := 0; i < 25; i++ {
		for j := 0; j < 25; j++ {
			p := geom.Vec2{
				X: ext.MinX + (ext.Width()*float64(i)+0.5)/25,
				Y: ext.MinY + (ext.Height()*float64(j)+0.5)/25,
			}
			f := loc.Locate(p)
			if f == NoFace {
				t.Fatalf("point %v not located", p)
			}
			if !m.Triangle(f).ContainsXY(p) {
				t.Fatalf("face %d does not contain %v", f, p)
			}
		}
	}
}

func TestEmbedPoint(t *testing.T) {
	m := twoTriangleMesh()
	loc := NewLocator(m)
	nf := m.NumFaces()
	v, err := m.EmbedPoint(loc, geom.Vec2{X: 0.5, Y: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if int(v) != 4 {
		t.Errorf("new vertex id = %d, want 4", v)
	}
	if m.NumFaces() != nf+2 {
		t.Errorf("faces = %d, want %d", m.NumFaces(), nf+2)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("Validate after embed: %v", err)
	}
	// Embedded vertex is connected to the containing triangle's corners.
	nb := m.VertexNeighbors(v)
	if len(nb) != 3 {
		t.Errorf("embedded vertex neighbours = %v", nb)
	}
	// Elevation interpolated (flat mesh → 0).
	if m.Verts[v].Z != 0 {
		t.Errorf("embedded z = %v", m.Verts[v].Z)
	}
}

func TestEmbedPointAtExistingVertex(t *testing.T) {
	m := twoTriangleMesh()
	loc := NewLocator(m)
	nv := m.NumVerts()
	v, err := m.EmbedPoint(loc, geom.Vec2{X: 0, Y: 0})
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 || m.NumVerts() != nv {
		t.Errorf("embedding at existing vertex: v=%d, verts=%d", v, m.NumVerts())
	}
}

func TestEmbedPointOutside(t *testing.T) {
	m := twoTriangleMesh()
	loc := NewLocator(m)
	if _, err := m.EmbedPoint(loc, geom.Vec2{X: 5, Y: 5}); err == nil {
		t.Error("embedding outside should fail")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	// Out of range vertex.
	m := New([]geom.Vec3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}}, [][3]VertexID{{0, 1, 5}})
	if err := m.Validate(); err == nil {
		t.Error("out-of-range vertex not caught")
	}
	// Repeated vertex.
	m = New([]geom.Vec3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}}, [][3]VertexID{{0, 1, 1}})
	if err := m.Validate(); err == nil {
		t.Error("degenerate face not caught")
	}
	// Clockwise face.
	m = New([]geom.Vec3{{X: 0, Y: 0, Z: 0}, {X: 1, Y: 0, Z: 0}, {X: 0, Y: 1, Z: 0}}, [][3]VertexID{{0, 2, 1}})
	if err := m.Validate(); err == nil {
		t.Error("clockwise face not caught")
	}
	// Valid mesh passes.
	if err := twoTriangleMesh().Validate(); err != nil {
		t.Errorf("valid mesh rejected: %v", err)
	}
}

func TestClone(t *testing.T) {
	m := twoTriangleMesh()
	c := m.Clone()
	c.Verts[0].Z = 99
	c.Faces[0][0] = 3
	if m.Verts[0].Z == 99 || m.Faces[0][0] == 3 {
		t.Error("Clone shares storage with original")
	}
	if m.String() == "" {
		t.Error("String should describe the mesh")
	}
}

// TestAdjacencyConcurrentFirstUse has 8 goroutines make the first adjacency
// calls on a fresh mesh at once — released together, half through
// FacesOfVertex, half through AdjacentFace — and run under -race. Every
// answer must match a mesh whose tables one goroutine built alone, whoever
// triggers the build: no caller may see a nil or half-filled table.
func TestAdjacencyConcurrentFirstUse(t *testing.T) {
	g := dem.Synthesize(dem.BH, 64, 10, 7)
	ref := FromGrid(g)
	want := make([][]FaceID, ref.NumVerts())
	for v := range want {
		want[v] = ref.FacesOfVertex(VertexID(v))
	}
	wantAdj := make([][3]FaceID, ref.NumFaces())
	for f := range wantAdj {
		for side := 0; side < 3; side++ {
			wantAdj[f][side] = ref.AdjacentFace(FaceID(f), side)
		}
	}

	m := FromGrid(g)
	const workers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make([]string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			// Each worker starts at a different face and vertex, so the
			// first call — the one that may trigger the build — differs.
			for k := 0; k < m.NumFaces(); k++ {
				f := (k + w*997) % m.NumFaces()
				v := (k + w*331) % m.NumVerts()
				if w%2 == 0 {
					if got := m.FacesOfVertex(VertexID(v)); !slices.Equal(got, want[v]) {
						errs[w] = fmt.Sprintf("FacesOfVertex(%d) = %v, want %v", v, got, want[v])
						return
					}
				}
				for side := 0; side < 3; side++ {
					if got := m.AdjacentFace(FaceID(f), side); got != wantAdj[f][side] {
						errs[w] = fmt.Sprintf("AdjacentFace(%d, %d) = %d, want %d", f, side, got, wantAdj[f][side])
						return
					}
				}
				if w%2 == 1 {
					if got := m.FacesOfVertex(VertexID(v)); !slices.Equal(got, want[v]) {
						errs[w] = fmt.Sprintf("FacesOfVertex(%d) = %v, want %v", v, got, want[v])
						return
					}
				}
			}
		}(w)
	}
	close(start)
	wg.Wait()
	for w, e := range errs {
		if e != "" {
			t.Errorf("worker %d: %s", w, e)
		}
	}
}

// TestAdjacencyAfterEmbed checks that EmbedPoint invalidates tables already
// built: the split face's new neighbours are visible on the next call.
func TestAdjacencyAfterEmbed(t *testing.T) {
	m := twoTriangleMesh()
	if got := m.AdjacentFace(0, 2); got != 1 {
		t.Fatalf("AdjacentFace(0,2) = %d before embedding, want 1", got)
	}
	v, err := m.EmbedPoint(NewLocator(m), geom.Vec2{X: 0.75, Y: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	// Face 0 (0,1,2) became (0,1,v) plus (1,2,v) and (2,0,v); the last
	// now holds the shared diagonal, whose neighbour is face 1.
	if got := m.AdjacentFace(3, 0); got != 1 {
		t.Errorf("AdjacentFace(3,0) = %d after embedding, want 1", got)
	}
	if got := len(m.FacesOfVertex(v)); got != 3 {
		t.Errorf("embedded vertex has %d faces, want 3", got)
	}
}
