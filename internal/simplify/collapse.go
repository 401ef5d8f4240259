package simplify

import (
	"cmp"
	"fmt"
	"slices"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

// Collapse records one edge collapse: nodes A and B merge into Parent.
// Node IDs follow the DM convention: the n original vertices are nodes
// 0..n-1 and the i-th collapse (0-based) creates node n+i, so the root of
// the final tree is node 2n-2.
type Collapse struct {
	A, B   int32     // merged nodes (A's representative survives)
	Parent int32     // the new node, == NumLeaves + index of this collapse
	Error  float64   // monotone (clamped) quadric error of the merge
	Pos    geom.Vec3 // QEM-optimal position of the merged node
	Dist   float64   // recorded network distance between A and B's representatives
}

// History is the full collapse sequence of a mesh down to a single node.
type History struct {
	NumLeaves int
	Collapses []Collapse
}

// NumNodes returns the total number of tree nodes (leaves + parents).
func (h *History) NumNodes() int { return h.NumLeaves + len(h.Collapses) }

// candidate is a potential collapse in the priority queue. Entries are
// invalidated lazily via per-node version counters.
type candidate struct {
	a, b   int32
	va, vb uint32 // versions of a and b at push time
	err    float64
	pos    geom.Vec3
}

// candHeap is a binary min-heap of candidates on err. It sifts 16-byte
// (err, slot) entries; the candidates themselves stay put in an
// append-only slab. push and pop replicate container/heap's sift loops
// verbatim (strict-less comparisons, identical swap order): equal-error
// candidates pop in an order set by these exact sift paths, and that order
// decides the collapse history, hence the DDM tree every snapshot carries.
type candHeap struct {
	q     []heapEntry
	cands []candidate
}

type heapEntry struct {
	err  float64
	slot int32 // index into cands
}

func (h *candHeap) push(c candidate) {
	h.cands = append(h.cands, c)
	q := append(h.q, heapEntry{c.err, int32(len(h.cands) - 1)})
	j := len(q) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(q[j].err < q[i].err) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
	h.q = q
}

func (h *candHeap) pop() candidate {
	q := h.q
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && q[j2].err < q[j1].err {
			j = j2
		}
		if !(q[j].err < q[i].err) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	h.q = q[:n]
	return h.cands[q[n].slot]
}

// Simplify collapses the mesh down to a single node and returns the full
// history. The mesh must be connected; a disconnected mesh returns an
// error once no collapsible pair remains.
//
// Distances recorded with each collapse follow the paper's DDM rule:
// d(A,B) is the current network distance annotation between the two nodes,
// which is by construction the length of a real path on the original mesh
// between their representative vertices.
func Simplify(m *mesh.Mesh) (*History, error) {
	n := m.NumVerts()
	if n == 0 {
		return nil, fmt.Errorf("simplify: empty mesh")
	}
	if n == 1 {
		return &History{NumLeaves: 1}, nil
	}

	total := 2*n - 1
	quadrics := make([]Quadric, n, total)
	pos := make([]geom.Vec3, n, total)
	alive := make([]bool, n, total)
	version := make([]uint32, n, total)
	neighbors := make([][]neighbor, n, total)

	for v := 0; v < n; v++ {
		pos[v] = m.Verts[v]
		alive[v] = true
	}
	// Initial quadrics: area-weighted face planes.
	for f := 0; f < m.NumFaces(); f++ {
		tri := m.Triangle(mesh.FaceID(f))
		a, b, c, d := tri.Plane()
		if a == 0 && b == 0 && c == 0 && d == 0 {
			continue // degenerate face contributes nothing
		}
		q := QuadricFromPlane(a, b, c, d).Scale(tri.Area())
		for _, v := range m.Faces[f] {
			quadrics[v] = quadrics[v].Add(q)
		}
	}
	// Initial connectivity with edge lengths as the recorded distances.
	for _, e := range m.Edges() {
		d := m.EdgeLength(e)
		neighbors[e.A] = append(neighbors[e.A], neighbor{int32(e.B), d})
		neighbors[e.B] = append(neighbors[e.B], neighbor{int32(e.A), d})
	}
	for _, nv := range neighbors {
		slices.SortFunc(nv, func(x, y neighbor) int { return cmp.Compare(x.w, y.w) })
	}

	pq := &candHeap{}
	pushCandidate := func(a, b int32) {
		q := quadrics[a].Add(quadrics[b])
		p, ok := q.OptimalPoint()
		err := 0.0
		if ok && p.Dist(pos[a]) < 10*pos[a].Dist(pos[b])+1 {
			err = q.Error(p)
		} else {
			// Singular quadric: evaluate endpoints and midpoint.
			p = pos[a]
			err = q.Error(p)
			if e2 := q.Error(pos[b]); e2 < err {
				p, err = pos[b], e2
			}
			if mid := pos[a].Lerp(pos[b], 0.5); q.Error(mid) < err {
				p, err = mid, q.Error(mid)
			}
		}
		pq.push(candidate{a: a, b: b, va: version[a], vb: version[b], err: err, pos: p})
	}
	for a := int32(0); a < int32(n); a++ {
		for _, nb := range neighbors[a] {
			if nb.w > a {
				pushCandidate(a, nb.w)
			}
		}
	}

	hist := &History{NumLeaves: n, Collapses: make([]Collapse, 0, n-1)}
	lastErr := 0.0
	for len(hist.Collapses) < n-1 {
		if len(pq.q) == 0 {
			return nil, fmt.Errorf("simplify: mesh is disconnected (%d of %d collapses done)", len(hist.Collapses), n-1)
		}
		cand := pq.pop()
		a, b := cand.a, cand.b
		if !alive[a] || !alive[b] || version[a] != cand.va || version[b] != cand.vb {
			continue // stale
		}
		ib, connected := slices.BinarySearchFunc(neighbors[a], b, func(x neighbor, w int32) int { return cmp.Compare(x.w, w) })
		if !connected {
			continue
		}
		dAB := neighbors[a][ib].d

		parent := int32(len(pos))
		// Monotone error: DM LOD intervals require child error <= parent
		// error, so clamp to the largest error seen so far.
		e := cand.err
		if e < lastErr {
			e = lastErr
		}
		lastErr = e
		hist.Collapses = append(hist.Collapses, Collapse{
			A: a, B: b, Parent: parent, Error: e, Pos: cand.pos, Dist: dAB,
		})

		// Create the parent node: N(c) = N(a) ∪ N(b) \ {a,b}; the recorded
		// distance follows the paper's rule — d(c,w) = d(a,w) when w ∈ N(a),
		// otherwise d(b,w) + d(a,b). Both lists are sorted by w, so the
		// union is one merge and comes out sorted.
		merged := mergeNeighbors(neighbors[a], neighbors[b], a, b, dAB)
		quadrics = append(quadrics, quadrics[a].Add(quadrics[b]))
		pos = append(pos, cand.pos)
		alive[a], alive[b] = false, false
		alive = append(alive, true)
		version = append(version, 0)
		neighbors[a], neighbors[b] = nil, nil
		neighbors = append(neighbors, merged)

		// Rewire neighbours to point at the parent and refresh candidates,
		// in ascending neighbour order so heap tie-breaking — and therefore
		// the whole collapse history — is deterministic run to run. The
		// parent has the largest ID yet, so appending it keeps w's list
		// sorted.
		for _, nb := range merged {
			w := nb.w
			neighbors[w] = append(slices.DeleteFunc(neighbors[w], func(x neighbor) bool {
				return x.w == a || x.w == b
			}), neighbor{parent, nb.d})
			version[w]++
			pushCandidate(parent, w)
		}
	}
	return hist, nil
}

// neighbor is one entry of a node's adjacency: the neighbouring node and
// the recorded network distance to it. Each node's list is sorted by w.
type neighbor struct {
	w int32
	d float64
}

// mergeNeighbors returns N(a) ∪ N(b) \ {a,b} sorted by node, each entry
// carrying d(a,w) when w ∈ N(a) and d(b,w) + dAB otherwise.
func mergeNeighbors(na, nb []neighbor, a, b int32, dAB float64) []neighbor {
	out := make([]neighbor, 0, len(na)+len(nb))
	i, j := 0, 0
	for i < len(na) || j < len(nb) {
		switch {
		case j == len(nb) || (i < len(na) && na[i].w < nb[j].w):
			if na[i].w != b {
				out = append(out, na[i])
			}
			i++
		case i == len(na) || nb[j].w < na[i].w:
			if nb[j].w != a {
				out = append(out, neighbor{nb[j].w, nb[j].d + dAB})
			}
			j++
		default: // in both: a's distance wins
			if na[i].w != b {
				out = append(out, na[i])
			}
			i++
			j++
		}
	}
	return out
}
