package core

import (
	"context"
	"fmt"
	"math"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/obs"
	"surfknn/internal/stats"
)

// DistanceRange is a bracketing of a surface distance with its achieved
// accuracy ε = LB/UB.
type DistanceRange struct {
	LB, UB float64
	// Accuracy is LB/UB in [0,1]; 1 means the range collapsed.
	Accuracy float64
	// Iterations is the number of resolution steps consumed.
	Iterations int
}

// DistanceWithAccuracyCtx answers the paper's §5.3 query — "what is the
// surface distance between a and b within accuracy X%" — directly from the
// multiresolution structures: it walks the schedule, tightening [lb, ub],
// and stops as soon as lb/ub ≥ accuracy (or the ladder is exhausted, in
// which case the best achieved range is returned). accuracy must be in
// (0, 1]; the structures on typical terrains support up to roughly the
// Fig. 8 plateau. ctx cancels or deadlines this query only.
//
// Beside the range it returns the query's Result shell: no neighbours, but
// the per-phase Cost, Trace and Epoch (the EXPLAIN path needs those
// numbers).
func (s *Session) DistanceWithAccuracyCtx(ctx context.Context, a, b mesh.SurfacePoint, accuracy float64, sched Schedule) (DistanceRange, Result, error) {
	if accuracy <= 0 || accuracy > 1 || math.IsNaN(accuracy) {
		return DistanceRange{}, Result{}, fmt.Errorf("core: accuracy %g outside (0,1]", accuracy)
	}
	s.beginQuery(ctx, algoAccuracy)
	out, err := s.distanceWithAccuracy(a, b, accuracy, sched)
	res, err2 := s.endQuery(algoAccuracy, 0, nil, err)
	return out, res, err2
}

// distanceWithAccuracy walks the refinement ladder under one "refine" phase,
// with a trace span per resolution step.
func (s *Session) distanceWithAccuracy(a, b mesh.SurfacePoint, accuracy float64, sched Schedule) (DistanceRange, error) {
	db := s.db
	s.beginPhase(stats.PhaseRefine)
	pc := s.curPhase()
	out := DistanceRange{
		LB: a.Pos.Dist(b.Pos),
		UB: math.Inf(1),
	}
	ext := db.Extent
	for it := 0; it < sched.Steps(); it++ {
		if err := s.interrupted(); err != nil {
			return out, err
		}
		out.Iterations = it + 1
		pc.Iterations++
		ri := sched.rung(it)
		span := obs.NoSpan
		if s.cost.trace != nil {
			span = s.startSpan("iter", map[string]float64{
				"i": float64(it), "dm_res": rungs[ri].dmtm, "sdn_res": rungs[ri].msdn,
			})
		}
		// Upper bound (running minimum).
		var ub float64
		region := ext
		if !math.IsInf(out.UB, 1) {
			if m := geom.NewEllipse(a.XY(), b.XY(), out.UB).MBR(); !m.IsEmpty() {
				region = m
			}
		}
		if ri == pathnetRung {
			ub = s.path.DistanceWithin(a, b, region)
			if math.IsInf(ub, 1) {
				// Region clipped every path; retry unclipped. The discarded
				// second result is the path polyline, not an error — truly
				// disconnected points keep UB = +Inf, which the final check
				// below turns into an explicit error.
				ub, _ = s.path.Distance(a, b)
			}
			pc.UpperBounds++
			// The pathnet level is the reference metric: collapse the range.
			if ub < out.UB {
				out.UB = ub
			}
			if out.UB > out.LB {
				out.LB = out.UB
			}
		} else {
			tm := db.rungTime[ri]
			s.touchDMTM(region, tm)
			pc.UpperBounds++
			if ub = s.est.UpperBound(db.Mesh, a, b, tm); ub < out.UB {
				out.UB = ub
			}
		}
		// Lower bound within the refreshed ellipse (running maximum).
		if !math.IsInf(out.UB, 1) {
			if m := geom.NewEllipse(a.XY(), b.XY(), out.UB).MBR(); !m.IsEmpty() {
				region = m
			}
			s.touchSDN(region, rungLevel[ri])
			// A closed range (the pathnet branch above has just set LB = UB)
			// takes no estimation: any estimate would be clamped back to UB.
			// The SDN pages above are still owed.
			if out.LB < out.UB {
				est := db.MSDN.LowerBoundScratch(&s.sdnSc, a.Pos, b.Pos, region, rungs[ri].msdn, math.Inf(1))
				pc.LowerBounds++
				if est.LB > out.LB {
					out.LB = est.LB
				}
			}
			if out.LB > out.UB {
				out.LB = out.UB
			}
		}
		s.endSpan(span)
		out.Accuracy = out.LB / out.UB
		if out.Accuracy >= accuracy {
			break
		}
	}
	if math.IsInf(out.UB, 1) {
		return out, fmt.Errorf("core: points are not connected on the surface")
	}
	return out, nil
}
