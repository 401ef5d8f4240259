// Package pathnet implements the Steiner-point refinement of a surface mesh
// used for approximate surface-distance computation (Kanai & Suzuki style),
// which the paper unifies with the DDM into the DMTM as its
// higher-than-original ("200%") resolution levels: inserting Steiner points
// into mesh edges and linking all points on each triangular facet lets
// network paths cut across facet interiors, so the network distance
// converges to the true surface distance from above.
package pathnet

import (
	"fmt"
	"slices"

	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/mesh"
)

// Pathnet is the refined network over a mesh (or a subset of its faces).
// After Build the graph is finalized (CSR form) and the per-face boundary
// point lists are packed into one offset/slab pair — three flat buffers
// that queries chase no pointers through and snapshots serialise verbatim
// (see Flat).
type Pathnet struct {
	G   *graph.Graph
	Pos []geom.Vec3 // position of each network vertex

	m       *mesh.Mesh
	steiner int // Steiner points per edge

	// Per-face boundary points in CSR form: face f's network vertices are
	// facePts[faceOff[f]:faceOff[f+1]]. Faces excluded from a subset build
	// have empty ranges.
	faceOff []int32
	facePts []int32
}

// Build constructs a pathnet with steinerPerEdge Steiner points inserted
// into every mesh edge (0 reproduces the plain mesh network augmented with
// in-facet shortcuts between corners, which the triangle edges already
// provide, so 0 is effectively the original network).
func Build(m *mesh.Mesh, steinerPerEdge int) *Pathnet {
	return BuildSubset(m, steinerPerEdge, nil)
}

// BuildSubset constructs a pathnet over a subset of the mesh's faces (nil
// means all faces) — the "selectively refined region" of Kanai & Suzuki.
// Mesh vertices keep their IDs (graph vertices 0..NumVerts-1) even when
// excluded, so distances between vertex IDs remain meaningful; excluded
// faces contribute no Steiner points and no links.
//
// Network vertices and arcs are numbered by first sight: each undirected
// edge gets its Steiner points when a face of the list first names it, and
// each vertex's arcs are its links in the order the face walk first adds
// them. Both are built without maps, in flat arrays sized by one counting
// pass: an edge is found in its lower endpoint's short list of higher
// endpoints, a link in its lower endpoint's arcs so far.
func BuildSubset(m *mesh.Mesh, steinerPerEdge int, faces []mesh.FaceID) *Pathnet {
	if steinerPerEdge < 0 {
		panic(fmt.Sprintf("pathnet: negative steiner count %d", steinerPerEdge))
	}
	n := m.NumVerts()
	p := &Pathnet{m: m, steiner: steinerPerEdge}
	faceList := faces
	if faces == nil {
		faceList = make([]mesh.FaceID, m.NumFaces())
		for i := range faceList {
			faceList[i] = mesh.FaceID(i)
		}
	}
	p.Pos = make([]geom.Vec3, n, n+steinerPerEdge*3*len(faceList)/2)
	copy(p.Pos, m.Verts)

	// Subdivide each undirected edge of an included face once, in
	// first-seen order; side[3k+i] is the first Steiner point of face
	// faceList[k]'s side i. Edge (a,b), a < b, is looked up among the
	// higher endpoints recorded under a.
	lo := make([]int32, n+1)
	for _, f := range faceList {
		face := m.Faces[f]
		for i := 0; i < 3; i++ {
			lo[min(face[i], face[(i+1)%3])+1]++
		}
	}
	for v := 0; v < n; v++ {
		lo[v+1] += lo[v]
	}
	higher := make([]mesh.VertexID, lo[n])
	first := make([]int32, lo[n])
	seen := make([]int32, n)
	side := make([]int32, 3*len(faceList))
	for k, f := range faceList {
		face := m.Faces[f]
		for i := 0; i < 3; i++ {
			a, b := face[i], face[(i+1)%3]
			if a > b {
				a, b = b, a
			}
			at := lo[a]
			j := slices.Index(higher[at:at+seen[a]], b)
			if j < 0 {
				j = int(seen[a])
				seen[a]++
				higher[at+int32(j)] = b
				first[at+int32(j)] = int32(len(p.Pos))
				va, vb := m.Verts[a], m.Verts[b]
				for t := 0; t < steinerPerEdge; t++ {
					p.Pos = append(p.Pos, va.Lerp(vb, float64(t+1)/float64(steinerPerEdge+1)))
				}
			}
			side[3*k+i] = first[at+int32(j)]
		}
	}

	// Each included face's boundary points: corner, its side's Steiner
	// points (in the edge's order, lower endpoint first, whichever way the
	// side runs), next corner, ... — packed straight into the face-point
	// CSR pair.
	perFace := 3 + 3*steinerPerEdge
	p.faceOff = make([]int32, m.NumFaces()+1)
	for _, f := range faceList {
		p.faceOff[f+1] = int32(perFace)
	}
	for f := range m.NumFaces() {
		p.faceOff[f+1] += p.faceOff[f]
	}
	p.facePts = make([]int32, p.faceOff[m.NumFaces()])
	for k, f := range faceList {
		pts := p.facePts[p.faceOff[f]:p.faceOff[f+1]]
		face := m.Faces[f]
		for i := 0; i < 3; i++ {
			pts[i*(1+steinerPerEdge)] = int32(face[i])
			for t := 0; t < steinerPerEdge; t++ {
				pts[i*(1+steinerPerEdge)+1+t] = side[3*k+i] + int32(t)
			}
		}
	}

	// Link every pair of boundary points of each facet; the segment between
	// any two of them lies on the (planar) facet, so the link length is a
	// valid surface path length. A vertex has at most perFace-1 links per
	// face listing it, which sizes its arc run; a link two faces share (on
	// their common edge) is added once, by the first.
	nv := len(p.Pos)
	at := make([]int32, nv+1)
	for _, f := range faceList {
		for _, v := range p.FacePoints(f) {
			at[v+1] += int32(perFace - 1)
		}
	}
	for v := 0; v < nv; v++ {
		at[v+1] += at[v]
	}
	slab := make([]graph.Arc, at[nv])
	deg := make([]int32, nv)
	links := 0
	link := func(a, b int32) {
		if a == b {
			return
		}
		if a > b {
			a, b = b, a
		}
		for _, arc := range slab[at[a] : at[a]+deg[a]] {
			if arc.To == b {
				return
			}
		}
		w := p.Pos[a].Dist(p.Pos[b])
		slab[at[a]+deg[a]] = graph.Arc{To: b, W: w}
		slab[at[b]+deg[b]] = graph.Arc{To: a, W: w}
		deg[a]++
		deg[b]++
		links++
	}
	for _, f := range faceList {
		pts := p.FacePoints(f)
		for i := 0; i < len(pts); i++ {
			for j := i + 1; j < len(pts); j++ {
				link(pts[i], pts[j])
			}
		}
	}
	off := make([]int32, nv+1)
	for v := 0; v < nv; v++ {
		off[v+1] = off[v] + deg[v]
	}
	arcs := make([]graph.Arc, off[nv])
	for v := 0; v < nv; v++ {
		copy(arcs[off[v]:off[v+1]], slab[at[v]:at[v]+deg[v]])
	}
	p.G = graph.FromCSR(off, arcs, links)
	return p
}

// FacePoints returns the network vertices on face f's boundary (empty for
// faces excluded from a subset build). The slice is shared; callers must
// not modify it.
func (p *Pathnet) FacePoints(f mesh.FaceID) []int32 {
	return p.facePts[p.faceOff[f]:p.faceOff[f+1]]
}

// NumVertices returns the number of network vertices (mesh vertices plus
// Steiner points).
func (p *Pathnet) NumVertices() int { return len(p.Pos) }

// SteinerPerEdge returns the refinement level the pathnet was built with.
func (p *Pathnet) SteinerPerEdge() int { return p.steiner }

// Embed adds a surface point to the network, linked to every boundary point
// of its containing facet. It mutates the pathnet — query paths use the
// non-mutating Querier instead; Embed remains for callers that own a
// private (per-query subset) pathnet, such as constrained traversal.
func (p *Pathnet) Embed(sp mesh.SurfacePoint) int {
	v := p.G.AddVertex()
	p.Pos = append(p.Pos, sp.Pos)
	for _, w := range p.FacePoints(sp.Face) {
		p.G.AddEdge(v, int(w), sp.Pos.Dist(p.Pos[w]))
	}
	return v
}

// Distance returns the pathnet approximation of the surface distance
// between two surface points, and the 3-D polyline realising it.
//
// This is a convenience wrapper that builds a throwaway Querier; callers
// issuing many distance computations (the query engine's sessions) hold a
// Querier of their own to reuse its scratch across calls. The pathnet
// itself is not mutated, so concurrent calls on distinct Queriers are safe.
func (p *Pathnet) Distance(a, b mesh.SurfacePoint) (float64, []geom.Vec3) {
	return p.NewQuerier().Distance(a, b)
}

// DistanceWithin behaves like Distance but ignores network vertices whose
// (x,y) position falls outside region — the search-region restriction used
// by EA and by MR3's pathnet-level refinement. Distances can only grow
// (or become +Inf) under restriction.
func (p *Pathnet) DistanceWithin(a, b mesh.SurfacePoint, region geom.MBR) float64 {
	return p.NewQuerier().DistanceWithin(a, b, region)
}

// DistanceToFacePoint evaluates the shortest distance to an arbitrary
// surface point given a precomputed distance field over the network (from
// graph.Dijkstra on p.G): the minimum over the point's facet boundary
// points of their network distance plus the straight in-face leg. Returns
// +Inf when the face has no points in this (possibly subset) pathnet.
func (p *Pathnet) DistanceToFacePoint(dist []float64, sp mesh.SurfacePoint) float64 {
	best := graph.Inf
	for _, w := range p.FacePoints(sp.Face) {
		if int(w) >= len(dist) {
			continue
		}
		if d := dist[w] + sp.Pos.Dist(p.Pos[w]); d < best {
			best = d
		}
	}
	return best
}

// Flat is the pathnet's persistence form: the graph's CSR buffers, the
// vertex positions and the face-point CSR pair — every query structure as
// flat arrays, written to snapshots verbatim so loading skips the whole
// Build (Steiner subdivision, facet linking) and is a straight read.
type Flat struct {
	Off     []int32
	Arcs    []graph.Arc
	Pos     []geom.Vec3
	Steiner int
	FaceOff []int32
	FacePts []int32
}

// Flatten returns the pathnet's flat buffers (shared, read-only).
func (p *Pathnet) Flatten() Flat {
	off, arcs := p.G.CSR()
	return Flat{
		Off: off, Arcs: arcs, Pos: p.Pos, Steiner: p.steiner,
		FaceOff: p.faceOff, FacePts: p.facePts,
	}
}

// FromFlat rebuilds a pathnet over m directly from its flat buffers (which
// are retained, not copied). Every pathnet edge is undirected, so the
// NumEdges counter is half the arc count.
func FromFlat(m *mesh.Mesh, f Flat) *Pathnet {
	return &Pathnet{
		G:   graph.FromCSR(f.Off, f.Arcs, len(f.Arcs)/2),
		Pos: f.Pos, m: m, steiner: f.Steiner,
		faceOff: f.FaceOff, facePts: f.FacePts,
	}
}
