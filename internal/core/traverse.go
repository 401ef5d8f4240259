package core

import (
	"fmt"
	"math"
	"sort"

	"surfknn/internal/geom"
	"surfknn/internal/graph"
	"surfknn/internal/mesh"
	"surfknn/internal/objstore"
	"surfknn/internal/pathnet"
)

// This file implements the paper's second future-work item (§6): "an
// efficient sk-NN query with obstacle constraints, which can be found in
// many real-life sk-NN applications, such as energy consumption and vehicle
// stability considerations for rovers, and general traversability
// constraints". Faces can be masked out (water, too-steep slopes, declared
// obstacles); distances are then measured along the traversable surface
// only.

// FaceMask reports whether a face is traversable.
type FaceMask func(f mesh.FaceID) bool

// SlopeMask admits faces whose slope (angle between the face normal and
// vertical) is at most maxSlopeDeg — the rover-stability constraint.
func SlopeMask(m *mesh.Mesh, maxSlopeDeg float64) FaceMask {
	maxRad := maxSlopeDeg * math.Pi / 180
	return func(f mesh.FaceID) bool {
		n := m.Triangle(f).Normal()
		l := n.Norm()
		if l == 0 {
			return false
		}
		// Slope = angle between the normal and +z.
		cos := math.Abs(n.Z) / l
		return math.Acos(clampUnit(cos)) <= maxRad
	}
}

// RegionMask blocks every face whose centroid falls inside any of the given
// rectangles (declared obstacle areas: lakes, restricted zones).
func RegionMask(m *mesh.Mesh, obstacles []geom.MBR) FaceMask {
	return func(f mesh.FaceID) bool {
		c := m.Triangle(f).Centroid().XY()
		for _, o := range obstacles {
			if o.Contains(c) {
				return false
			}
		}
		return true
	}
}

// AndMask combines masks conjunctively.
func AndMask(masks ...FaceMask) FaceMask {
	return func(f mesh.FaceID) bool {
		for _, m := range masks {
			if !m(f) {
				return false
			}
		}
		return true
	}
}

func clampUnit(v float64) float64 {
	if v > 1 {
		return 1
	}
	if v < -1 {
		return -1
	}
	return v
}

// maskedKNN answers the surface k-NN query over the traversable
// sub-surface, reading objects from view, the caller's pinned epoch (nil
// when no objects are installed): the distance to each object is the
// shortest path that stays on faces admitted by mask. Objects standing on
// blocked faces, or unreachable from q without crossing blocked faces, are
// excluded (the result may therefore hold fewer than k entries).
//
// Unlike MR3 this runs at a single (pathnet) resolution — the
// multiresolution structures are built for the unconstrained surface; a
// masked DMTM is future work here exactly as it was for the paper.
func (db *TerrainDB) maskedKNN(view *objstore.Epoch, q mesh.SurfacePoint, k int, mask FaceMask) ([]Neighbor, error) {
	if view == nil {
		return nil, fmt.Errorf("core: no objects installed (call SetObjects)")
	}
	if k < 1 {
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if mask == nil {
		return nil, fmt.Errorf("core: nil mask (use MR3 for unconstrained queries)")
	}
	if !mask(q.Face) {
		return nil, fmt.Errorf("core: query point stands on a blocked face")
	}
	var faces []mesh.FaceID
	for f := 0; f < db.Mesh.NumFaces(); f++ {
		if mask(mesh.FaceID(f)) {
			faces = append(faces, mesh.FaceID(f))
		}
	}
	if len(faces) == 0 {
		return nil, fmt.Errorf("core: mask blocks the entire surface")
	}
	pn := pathnet.BuildSubset(db.Mesh, db.cfg.SteinerPerEdge, faces)
	src := pn.Embed(q)

	// One single-source shortest-path run reaches every object.
	dist := graph.Dijkstra(pn.G, src)
	type scored struct {
		obj Neighbor
		d   float64
	}
	var reach []scored
	for _, o := range view.Table() {
		if !mask(o.Point.Face) {
			continue
		}
		// The object's distance is min over its face's boundary points of
		// (dist to point + in-face straight leg).
		d := pn.DistanceToFacePoint(dist, o.Point)
		if math.IsInf(d, 1) {
			continue
		}
		reach = append(reach, scored{Neighbor{Object: o, LB: d, UB: d}, d})
	}
	sort.Slice(reach, func(i, j int) bool { return reach[i].d < reach[j].d })
	if k > len(reach) {
		k = len(reach)
	}
	out := make([]Neighbor, k)
	for i := 0; i < k; i++ {
		out[i] = reach[i].obj
	}
	return out, nil
}
