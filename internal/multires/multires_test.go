package multires

import (
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/mesh"
	"surfknn/internal/simplify"
)

func buildTree(t *testing.T, size int, preset dem.Preset, seed int64) (*mesh.Mesh, *Tree) {
	t.Helper()
	m := mesh.FromGrid(dem.Synthesize(preset, size, 10, seed))
	tr, err := BuildFromMesh(m)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr
}

// meshGraph builds the plain original-mesh network for reference distances.
func meshGraph(m *mesh.Mesh) *graph.Graph {
	g := graph.New(m.NumVerts())
	for _, e := range m.Edges() {
		g.AddEdge(int(e.A), int(e.B), m.EdgeLength(e))
	}
	return g
}

func TestBuildValidates(t *testing.T) {
	_, tr := buildTree(t, 8, dem.BH, 1)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	n := tr.NumLeaves
	if tr.Root() != NodeID(2*n-2) {
		t.Errorf("root = %d", tr.Root())
	}
	if tr.MaxTime() != int32(n-1) {
		t.Errorf("MaxTime = %d", tr.MaxTime())
	}
}

// TestValidateRejectsMisorderedTree forges two trees a snapshot could
// carry that every other check passes: an internal node renumbered above
// its parent, and a root with a parent. The level networks' ancestor
// tables are filled in descending NodeID order, each node reading its
// parent's entry, so Validate must refuse both.
func TestValidateRejectsMisorderedTree(t *testing.T) {
	_, tr := buildTree(t, 4, dem.EP, 2)
	// Swap the IDs of the first collapse's node and its parent, rewriting
	// every reference to either.
	child := NodeID(tr.NumLeaves)
	parent := tr.Nodes[child].Parent
	swapped := &Tree{Nodes: append([]Node(nil), tr.Nodes...), Edges: append([]EdgeRec(nil), tr.Edges...), NumLeaves: tr.NumLeaves}
	swapped.SetMaxTime(tr.MaxTime())
	renum := func(v NodeID) NodeID {
		switch v {
		case child:
			return parent
		case parent:
			return child
		}
		return v
	}
	swapped.Nodes[child], swapped.Nodes[parent] = swapped.Nodes[parent], swapped.Nodes[child]
	for i := range swapped.Nodes {
		nd := &swapped.Nodes[i]
		nd.Parent, nd.Left, nd.Right = renum(nd.Parent), renum(nd.Left), renum(nd.Right)
	}
	for i := range swapped.Edges {
		e := &swapped.Edges[i]
		e.U, e.W = renum(e.U), renum(e.W)
	}
	if err := swapped.Validate(); err == nil {
		t.Errorf("node %d renumbered above its parent %d: Validate accepted the tree", parent, child)
	}

	rooted := &Tree{Nodes: append([]Node(nil), tr.Nodes...), Edges: tr.Edges, NumLeaves: tr.NumLeaves}
	rooted.Nodes[rooted.Root()].Parent = 0
	if err := rooted.Validate(); err == nil {
		t.Error("a root with a parent: Validate accepted the tree")
	}
}

func TestAncestorAt(t *testing.T) {
	_, tr := buildTree(t, 4, dem.EP, 2)
	n := tr.NumLeaves
	// At time 0 every leaf is its own ancestor.
	for v := 0; v < n; v++ {
		if got := tr.AncestorAt(NodeID(v), 0); got != NodeID(v) {
			t.Fatalf("AncestorAt(%d,0) = %d", v, got)
		}
	}
	// At the final time every leaf maps to the root.
	last := tr.MaxTime()
	for v := 0; v < n; v++ {
		if got := tr.AncestorAt(NodeID(v), last); got != tr.Root() {
			t.Fatalf("AncestorAt(%d,last) = %d, want root %d", v, got, tr.Root())
		}
	}
	// Each intermediate time has exactly ActiveNodeCount distinct ancestors.
	for _, tm := range []int32{1, int32(n) / 4, int32(n) / 2} {
		set := make(map[NodeID]bool)
		for v := 0; v < n; v++ {
			a := tr.AncestorAt(NodeID(v), tm)
			if !tr.IsActive(a, tm) {
				t.Fatalf("ancestor %d not active at %d", a, tm)
			}
			set[a] = true
		}
		if len(set) != tr.ActiveNodeCount(tm) {
			t.Fatalf("time %d: %d distinct ancestors, want %d", tm, len(set), tr.ActiveNodeCount(tm))
		}
	}
}

func TestTimeResolutionRoundTrip(t *testing.T) {
	_, tr := buildTree(t, 8, dem.EP, 3)
	for _, r := range []float64{0.005, 0.25, 0.5, 0.75, 1.0} {
		tm := tr.TimeForResolution(r)
		back := tr.ResolutionForTime(tm)
		if math.Abs(back-r) > 0.05 && r*float64(tr.NumLeaves) >= 2 {
			t.Errorf("resolution %v → time %d → %v", r, tm, back)
		}
	}
	if tr.TimeForResolution(1.0) != 0 {
		t.Error("full resolution should be time 0")
	}
	if tr.TimeForResolution(0) != int32(tr.NumLeaves-2) {
		t.Errorf("minimal resolution time = %d", tr.TimeForResolution(0))
	}
	if tr.ErrorAt(0) != 0 {
		t.Error("ErrorAt(0) should be 0")
	}
	if tr.ErrorAt(tr.MaxTime()) < tr.ErrorAt(tr.MaxTime()/2) {
		t.Error("cut error should be monotone in time")
	}
}

func TestNetworkAtTimeZeroMatchesMesh(t *testing.T) {
	m, tr := buildTree(t, 8, dem.BH, 4)
	nw := tr.ExtractNetwork(0, IncludeAll)
	if nw.G.NumVertices() != m.NumVerts() {
		t.Fatalf("network verts = %d, want %d", nw.G.NumVertices(), m.NumVerts())
	}
	ref := meshGraph(m)
	// Compare a few single-source distance fields.
	for _, srcLeaf := range []int{0, m.NumVerts() / 2} {
		src := int(nw.IdxOf[NodeID(srcLeaf)])
		got := graph.Dijkstra(nw.G, src)
		want := graph.Dijkstra(ref, srcLeaf)
		for v := 0; v < m.NumVerts(); v++ {
			gi := nw.IdxOf[NodeID(v)]
			if math.Abs(got[gi]-want[v]) > 1e-9 {
				t.Fatalf("dist to %d: %v want %v", v, got[gi], want[v])
			}
		}
	}
}

func TestGatherBound(t *testing.T) {
	m, tr := buildTree(t, 8, dem.BH, 5)
	ref := meshGraph(m)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		leaf := NodeID(rng.Intn(tr.NumLeaves))
		tm := int32(rng.Intn(int(tr.MaxTime())))
		anc := tr.AncestorAt(leaf, tm)
		rep := tr.Nodes[anc].Rep
		d := graph.Dijkstra(ref, int(leaf))[rep]
		if d > tr.Nodes[anc].Gather+1e-9 {
			t.Fatalf("gather violated: d(leaf %d, rep %d)=%v > gather %v (time %d)",
				leaf, rep, d, tr.Nodes[anc].Gather, tm)
		}
	}
}

func surfacePointAt(t *testing.T, m *mesh.Mesh, loc *mesh.Locator, x, y float64) mesh.SurfacePoint {
	t.Helper()
	sp, err := mesh.MakeSurfacePoint(m, loc, geom.Vec2{X: x, Y: y})
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestUpperBoundProperties(t *testing.T) {
	m, tr := buildTree(t, 8, dem.BH, 6)
	loc := mesh.NewLocator(m)
	ext := m.Extent()
	rng := rand.New(rand.NewSource(11))
	resolutions := []float64{0.01, 0.25, 0.5, 0.75, 1.0}
	for trial := 0; trial < 15; trial++ {
		a := surfacePointAt(t, m, loc,
			ext.MinX+rng.Float64()*ext.Width(), ext.MinY+rng.Float64()*ext.Height())
		b := surfacePointAt(t, m, loc,
			ext.MinX+rng.Float64()*ext.Width(), ext.MinY+rng.Float64()*ext.Height())
		euclid := a.Pos.Dist(b.Pos)
		prev := math.Inf(1)
		for _, r := range resolutions {
			est := tr.UpperBound(m, a, b, tr.TimeForResolution(r), IncludeAll)
			if math.IsInf(est.UB, 1) {
				t.Fatalf("disconnected at resolution %v", r)
			}
			if est.UB < euclid-1e-9 {
				t.Fatalf("ub %v below Euclidean %v (resolution %v)", est.UB, euclid, r)
			}
			// Monotone: higher resolution must not worsen the bound.
			if est.UB > prev+1e-9 {
				t.Fatalf("ub not monotone: %v at r=%v after %v", est.UB, r, prev)
			}
			prev = est.UB
		}
	}
}

func TestUpperBoundSameFace(t *testing.T) {
	m, tr := buildTree(t, 4, dem.EP, 7)
	loc := mesh.NewLocator(m)
	// Two points in the same triangle: bound is the straight segment.
	a := surfacePointAt(t, m, loc, 1, 1)
	b := surfacePointAt(t, m, loc, 2, 2)
	if a.Face == b.Face {
		est := tr.UpperBound(m, a, b, 0, IncludeAll)
		if math.Abs(est.UB-a.Pos.Dist(b.Pos)) > 1e-9 {
			t.Errorf("same-face ub = %v, want %v", est.UB, a.Pos.Dist(b.Pos))
		}
	}
}

func TestUpperBoundRestrictedRegion(t *testing.T) {
	m, tr := buildTree(t, 8, dem.BH, 8)
	loc := mesh.NewLocator(m)
	ext := m.Extent()
	a := surfacePointAt(t, m, loc, ext.MinX+5, ext.MinY+5)
	b := surfacePointAt(t, m, loc, ext.MaxX-5, ext.MaxY-5)
	// A filter admitting nothing: estimation fails with +Inf.
	est := tr.UpperBound(m, a, b, 0, func(NodeID) bool { return false })
	if !math.IsInf(est.UB, 1) {
		t.Errorf("empty region should give Inf, got %v", est.UB)
	}
	// A generous rectangle around both points succeeds and can only be
	// >= the unrestricted bound.
	free := tr.UpperBound(m, a, b, 0, IncludeAll)
	roi := ext // full extent
	est = tr.UpperBound(m, a, b, 0, func(v NodeID) bool {
		return roi.Contains(tr.Nodes[v].RepPos.XY())
	})
	if est.UB < free.UB-1e-9 {
		t.Errorf("restricted ub %v below unrestricted %v", est.UB, free.UB)
	}
}

func TestUpperBoundPathNodes(t *testing.T) {
	m, tr := buildTree(t, 8, dem.EP, 12)
	loc := mesh.NewLocator(m)
	ext := m.Extent()
	a := surfacePointAt(t, m, loc, ext.MinX+3, ext.MinY+3)
	b := surfacePointAt(t, m, loc, ext.MaxX-3, ext.MaxY-3)
	tm := tr.TimeForResolution(0.5)
	est := tr.UpperBound(m, a, b, tm, IncludeAll)
	if len(est.Path) == 0 {
		t.Fatal("expected a non-empty path for distant points")
	}
	for _, v := range est.Path {
		if !tr.IsActive(v, tm) {
			t.Errorf("path node %d not active at time %d", v, tm)
		}
		if tr.Nodes[v].MBR.IsEmpty() {
			t.Errorf("path node %d has empty MBR", v)
		}
	}
}

func TestExtractMesh(t *testing.T) {
	m, tr := buildTree(t, 8, dem.BH, 9)
	// Full resolution reproduces the original size.
	full := tr.ExtractMesh(m, 0)
	if full.NumVerts() != m.NumVerts() || full.NumFaces() != m.NumFaces() {
		t.Errorf("full extraction %v, want %v", full, m)
	}
	// Half resolution has roughly half the vertices and fewer faces.
	tm := tr.TimeForResolution(0.5)
	half := tr.ExtractMesh(m, tm)
	if got, want := half.NumVerts(), tr.ActiveNodeCount(tm); got != want {
		t.Errorf("half extraction verts = %d, want %d", got, want)
	}
	if half.NumFaces() >= m.NumFaces() {
		t.Errorf("half extraction faces = %d not fewer than %d", half.NumFaces(), m.NumFaces())
	}
	if err := half.Validate(); err != nil {
		t.Errorf("extracted mesh invalid: %v", err)
	}
	// Very coarse extraction still works.
	coarse := tr.ExtractMesh(m, tr.TimeForResolution(0.01))
	if coarse.NumVerts() < 2 {
		t.Errorf("coarse extraction too small: %v", coarse)
	}
}

func TestBuildRejectsMismatch(t *testing.T) {
	m1 := mesh.FromGrid(dem.Synthesize(dem.EP, 4, 10, 1))
	m2 := mesh.FromGrid(dem.Synthesize(dem.EP, 8, 10, 1))
	tr, err := BuildFromMesh(m1)
	if err != nil {
		t.Fatal(err)
	}
	_ = tr
	hist, err := simplifyOf(m1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Build(m2, hist); err == nil {
		t.Error("mismatched history should fail")
	}
}

func simplifyOf(m *mesh.Mesh) (*simplify.History, error) { return simplify.Simplify(m) }
