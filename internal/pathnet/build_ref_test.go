package pathnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/mesh"
)

// refBuildSubset is the map-based build BuildSubset replaced: edge points
// deduplicated through a map keyed by the normalised edge, links through a
// map keyed by the normalised pair, the graph grown by AddEdge and then
// finalised. It stays as the reference the flat build is held to.
func refBuildSubset(m *mesh.Mesh, steinerPerEdge int, faces []mesh.FaceID) Flat {
	norm := func(a, b mesh.VertexID) mesh.Edge {
		if a > b {
			a, b = b, a
		}
		return mesh.Edge{A: a, B: b}
	}
	n := m.NumVerts()
	faceList := faces
	if faces == nil {
		faceList = make([]mesh.FaceID, m.NumFaces())
		for i := range faceList {
			faceList[i] = mesh.FaceID(i)
		}
	}
	pos := make([]geom.Vec3, n)
	copy(pos, m.Verts)
	edgePoints := make(map[mesh.Edge][]int32)
	for _, f := range faceList {
		face := m.Faces[f]
		for i := 0; i < 3; i++ {
			ek := norm(face[i], face[(i+1)%3])
			if _, ok := edgePoints[ek]; ok {
				continue
			}
			pts := make([]int32, steinerPerEdge)
			a, b := m.Verts[ek.A], m.Verts[ek.B]
			for s := 0; s < steinerPerEdge; s++ {
				pts[s] = int32(len(pos))
				pos = append(pos, a.Lerp(b, float64(s+1)/float64(steinerPerEdge+1)))
			}
			edgePoints[ek] = pts
		}
	}
	g := graph.New(len(pos))
	type link struct{ a, b int32 }
	added := make(map[link]bool)
	perFace := make([][]int32, m.NumFaces())
	for _, f := range faceList {
		face := m.Faces[f]
		var pts []int32
		for i := 0; i < 3; i++ {
			pts = append(pts, int32(face[i]))
			pts = append(pts, edgePoints[norm(face[i], face[(i+1)%3])]...)
		}
		perFace[f] = pts
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				a, b := pts[i], pts[j]
				if a == b {
					continue
				}
				if a > b {
					a, b = b, a
				}
				if added[link{a, b}] {
					continue
				}
				added[link{a, b}] = true
				g.AddEdge(int(a), int(b), pos[a].Dist(pos[b]))
			}
		}
	}
	faceOff := make([]int32, len(perFace)+1)
	var facePts []int32
	for f, pts := range perFace {
		faceOff[f] = int32(len(facePts))
		facePts = append(facePts, pts...)
	}
	faceOff[len(perFace)] = int32(len(facePts))
	off, arcs := g.CSR()
	return Flat{Off: off, Arcs: arcs, Pos: pos, Steiner: steinerPerEdge, FaceOff: faceOff, FacePts: facePts}
}

// TestBuildMatchesReference holds the flat build to the map-based one: the
// same vertex numbering and positions, the same arcs in the same
// per-vertex order with the same weight bits, the same face-point lists and
// edge count — over whole meshes and over random face subsets (repeats and
// scattered faces included), at several refinement levels.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	meshes := []*mesh.Mesh{
		flatMesh(1),
		mesh.FromGrid(dem.Synthesize(dem.BH, 16, 10, 2006)),
		mesh.FromGrid(dem.Synthesize(dem.EP, 8, 25, 7)),
	}
	for mi, m := range meshes {
		subsets := [][]mesh.FaceID{nil}
		for s := 0; s < 3; s++ {
			var sub []mesh.FaceID
			for f := 0; f < m.NumFaces(); f++ {
				if rng.Intn(3) == 0 {
					sub = append(sub, mesh.FaceID(f))
				}
			}
			rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
			if len(sub) > 0 {
				sub = append(sub, sub[0]) // a face listed twice
			}
			subsets = append(subsets, sub)
		}
		for _, steiner := range []int{0, 1, 2, 3} {
			for si, sub := range subsets {
				want := refBuildSubset(m, steiner, sub)
				p := BuildSubset(m, steiner, sub)
				got := p.Flatten()
				if !slices.Equal(got.Off, want.Off) || !slices.Equal(got.Pos, want.Pos) ||
					!slices.Equal(got.FaceOff, want.FaceOff) || !slices.Equal(got.FacePts, want.FacePts) ||
					got.Steiner != want.Steiner || len(got.Arcs) != len(want.Arcs) {
					t.Fatalf("mesh %d, steiner %d, subset %d: flat buffers differ from the reference", mi, steiner, si)
				}
				for i, a := range got.Arcs {
					if a.To != want.Arcs[i].To || math.Float64bits(a.W) != math.Float64bits(want.Arcs[i].W) {
						t.Fatalf("mesh %d, steiner %d, subset %d: arc %d is %+v, reference %+v", mi, steiner, si, i, a, want.Arcs[i])
					}
				}
				if got, want := p.G.NumEdges(), len(want.Arcs)/2; got != want {
					t.Fatalf("mesh %d, steiner %d, subset %d: %d edges, reference %d", mi, steiner, si, got, want)
				}
			}
		}
	}
}
