package core

import (
	"context"
	"fmt"
	"math"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
)

// SafeRegion is a planar disc around a query point inside which the query's
// top-k answer — the same object IDs, in the same output order — is
// provably unchanged: a continuous query whose point moves within the disc
// may keep serving the prior result without touching the engine.
//
// Derivation (see DESIGN.md "Continuous queries" for the full argument).
// The region is restricted to q's containing face, where the surface metric
// is Lipschitz in the planar query position: a planar move of length s
// moves the 3-D query point by at most L·s, with L = 1/|n_z| the face's
// slope stretch (n the unit face normal), and every per-object surface
// distance therefore shifts by at most L·s. The radius is the largest s
// such that, under a ±L·s shift of every distance,
//
//  1. consecutive result intervals stay strictly disjoint
//     (ub[i] + L·s < lb[i+1] − L·s), preserving the output order;
//  2. every enumerated non-result candidate stays strictly behind the k-th
//     (ub[k] + L·s < lbRest − L·s);
//  3. every object the step-3 range query never enumerated — planar
//     distance > R3, hence surface distance > R3 even after the move
//     shrinks its planar clearance by s — stays behind the k-th
//     (ub[k] + L·s < R3 − s);
//
// all minimised with the planar clearance to the face's own edges (the
// Lipschitz constant is only valid inside the face). Each gap is shrunk by
// the ranker's classification slack (1e-9 relative) so a re-query at the
// perturbed point cannot flip a decision the original query made within
// floating-point tolerance. Note r ≤ (lb[k+1] − ub[k])/2 always, since
// L ≥ 1: the flat-terrain gap formula is an upper bound on the radius.
type SafeRegion struct {
	// Center is the planar query position the region certifies.
	Center geom.Vec2
	// Radius is the certified planar move budget (0 when nothing could be
	// certified — on a face edge, with touching intervals, or k = 0).
	Radius float64
	// Guard is the invalidation radius: an object whose planar position
	// stays farther than Guard from Center can neither enter the top-k of
	// any point within the region nor have been enumerated by the query, so
	// inserting, moving or deleting it provably leaves the cached result —
	// bit for bit — intact. Guard = R3 + Radius, where R3 is the step-3
	// search radius.
	Guard float64
}

// Contains reports whether a planar point lies within the safe region.
func (sr SafeRegion) Contains(p geom.Vec2) bool {
	return p.Dist(sr.Center) <= sr.Radius
}

// GuardMBR is the axis-aligned box of the guard disc — the subscription's
// search-region footprint the stripe batcher and the epoch invalidation
// hook intersect against.
func (sr SafeRegion) GuardMBR() geom.MBR {
	return geom.MBR{
		MinX: sr.Center.X - sr.Guard, MinY: sr.Center.Y - sr.Guard,
		MaxX: sr.Center.X + sr.Guard, MaxY: sr.Center.Y + sr.Guard,
	}
}

// MR3SafeCtx answers the surface k-NN query exactly like MR3Ctx — the
// Result is bit-identical to what MR3Ctx returns for the same inputs at the
// same epoch — and additionally derives the answer's SafeRegion from the
// final ranker state. The derivation is pure planar geometry over bounds
// the query already computed: no extra I/O, no extra Dijkstra work.
func (s *Session) MR3SafeCtx(ctx context.Context, q mesh.SurfacePoint, k int, sched Schedule, opt Options) (Result, SafeRegion, error) {
	if s.db.store == nil {
		return Result{}, SafeRegion{}, fmt.Errorf("core: no objects installed (call SetObjects)")
	}
	if k < 1 {
		return Result{}, SafeRegion{}, fmt.Errorf("core: k must be positive, got %d", k)
	}
	s.beginQuery(ctx, algoMR3)
	ns, _, err := s.mr3(q, k, sched, opt, nil)
	var sr SafeRegion
	if err == nil {
		sr = s.safeRegion(q, ns)
	}
	res, err := s.endQuery(algoMR3, k, ns, err)
	return res, sr, err
}

// slack is the classification slack reserved per gap: the ranker decides
// in/out with a 1e-9 relative epsilon, so a certified gap must exceed that
// tolerance or a re-query at the perturbed point could settle a tie the
// other way.
func slack(ub float64) float64 { return 1e-9 * (1 + math.Abs(ub)) }

// safeRegion derives the answer's safe region from the final ranker state
// (ns aliases the ranker's results buffer; s.rk.cands still holds every
// candidate with its final bounds and state). Runs between mr3 and
// endQuery, while the query's epoch is still pinned.
func (s *Session) safeRegion(q mesh.SurfacePoint, ns []Neighbor) SafeRegion {
	sr := SafeRegion{Center: q.XY(), Guard: s.step3Radius}
	if len(ns) == 0 {
		return sr
	}
	// Slope stretch of q's face: a degenerate (vertical in projection) face
	// has no usable Lipschitz constant.
	tri := s.db.Mesh.Triangle(q.Face)
	_, _, nz, _ := tri.Plane()
	if math.Abs(nz) < geom.Eps {
		return sr
	}
	stretch := 1 / math.Abs(nz)

	// Clearance: how far the planar point may move before leaving the face
	// (the region the Lipschitz argument is valid on).
	clearance := math.Inf(1)
	a, b, c := tri.A.XY(), tri.B.XY(), tri.C.XY()
	for _, edge := range [3]geom.Segment2{{A: a, B: b}, {A: b, B: c}, {A: c, B: a}} {
		if d := edge.DistToPoint(sr.Center); d < clearance {
			clearance = d
		}
	}
	r := clearance * (1 - 1e-9)

	// Order stability: consecutive result intervals must stay disjoint.
	for i := 0; i+1 < len(ns); i++ {
		if math.IsInf(ns[i].UB, 1) {
			return sr // an unbounded member certifies nothing
		}
		gap := ns[i+1].LB - ns[i].UB - slack(ns[i].UB)
		if t := gap / (2 * stretch); t < r {
			r = t
		}
	}
	ubK := ns[len(ns)-1].UB
	if math.IsInf(ubK, 1) {
		return sr
	}

	// Separation: every enumerated candidate outside the result set must
	// stay strictly behind the k-th. Result membership is checked by ID —
	// k is small, the candidate count is bounded by the step-3 enumeration.
	for i := range s.rk.cands {
		c := &s.rk.cands[i]
		inResult := false
		for j := range ns {
			if ns[j].Object.ID == c.obj.ID {
				inResult = true
				break
			}
		}
		if inResult {
			continue
		}
		gap := c.lb - ubK - slack(ubK)
		if t := gap / (2 * stretch); t < r {
			r = t
		}
	}

	// Unseen objects: planar distance > R3 implies surface distance > R3;
	// after a move of s their distance still exceeds R3 − s, while the k-th
	// bound grows to at most ubK + stretch·s.
	if gap := s.step3Radius - ubK - slack(ubK); true {
		if t := gap / (stretch + 1); t < r {
			r = t
		}
	}

	if !(r > 0) { // also catches NaN from any non-finite arithmetic above
		r = 0
	}
	sr.Radius = r * (1 - 1e-9)
	sr.Guard = s.step3Radius + sr.Radius
	return sr
}
