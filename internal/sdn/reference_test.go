package sdn

import (
	"math"

	"surfknn/internal/geom"
)

// The reference lower bound: the plain all-pairs chain DP the table kernel
// replaced, kept as the oracle of the differential tests. It rescans each
// line's raw points into Segment boxes on every call and evaluates every
// (source, target) pair of consecutive layers with geom.Box3.DistToBox —
// no tables, no pruning. The kernel must return the same bits.

// refSegments is the segment materialisation the reference DP runs over: a
// direct scan of the retained points with geom.Box3.ExtendPoint.
func refSegments(cl *CrossLine, resolution float64, region geom.MBR, dst []Segment) []Segment {
	idx := cl.Retained(resolution)
	for k := 0; k+1 < len(idx); k++ {
		i, j := idx[k], idx[k+1]
		box := geom.EmptyBox3()
		for p := i; p <= j; p++ {
			box = box.ExtendPoint(cl.Pts[p])
		}
		if !box.XY().Intersects(region) {
			continue
		}
		dst = append(dst, Segment{Line: cl, I: i, J: j, Box: box})
	}
	return dst
}

// refLowerBound mirrors the single-family estimate (the 45° family heuristic).
func refLowerBound(ms *MSDN, a, b geom.Vec3, region geom.MBR, resolution float64, envelope []Segment, margin float64) LowerEstimate {
	return refChain(ms, prefersX(a, b), a, b, region, resolution, envelope, margin)
}

func refChain(ms *MSDN, useX bool, a, b geom.Vec3, region geom.MBR, resolution float64, envelope []Segment, margin float64) LowerEstimate {
	euclid := a.Dist(b)
	lines, lo, hi := ms.YLines, math.Min(a.Y, b.Y), math.Max(a.Y, b.Y)
	if useX {
		lines, lo, hi = ms.XLines, math.Min(a.X, b.X), math.Max(a.X, b.X)
	}
	var between []*CrossLine
	for _, i := range linesBetweenInto(lines, lo, hi, planeStepFor(resolution), nil) {
		between = append(between, lines[i])
	}
	if len(between) == 0 {
		return LowerEstimate{LB: euclid}
	}
	aCoord := a.Y
	if between[0].Axis == XAxis {
		aCoord = a.X
	}
	if math.Abs(between[0].Coord-aCoord) > math.Abs(between[len(between)-1].Coord-aCoord) {
		for i, j := 0, len(between)-1; i < j; i, j = i+1, j-1 {
			between[i], between[j] = between[j], between[i]
		}
	}
	var envBoxes []geom.MBR
	for _, s := range envelope {
		envBoxes = append(envBoxes, s.Box.XY().Expand(margin))
	}

	est := LowerEstimate{}
	var segs []Segment
	var dist []float64
	var prev []int
	prevStart := -1
	for _, cl := range between {
		segStart := len(segs)
		segs = refSegments(cl, resolution, region, segs)
		if len(envelope) > 0 {
			kept := segStart
			for p := segStart; p < len(segs); p++ {
				if envIntersects(envBoxes, segs[p].Box.XY()) {
					segs[kept] = segs[p]
					kept++
				}
			}
			segs = segs[:kept]
		}
		est.Segments += len(segs) - segStart
		if len(segs) == segStart {
			continue
		}
		for p := segStart; p < len(segs); p++ {
			if prevStart < 0 {
				dist = append(dist, segs[p].Box.DistToPoint(a))
				prev = append(prev, -1)
				continue
			}
			best, bestJ := math.Inf(1), -1
			for j := prevStart; j < segStart; j++ {
				if d := dist[j] + segs[j].Box.DistToBox(segs[p].Box); d < best {
					best, bestJ = d, j
				}
			}
			dist = append(dist, best)
			prev = append(prev, bestJ)
		}
		prevStart = segStart
	}
	if prevStart < 0 {
		return LowerEstimate{LB: euclid, Segments: est.Segments}
	}
	best, bestK := math.Inf(1), -1
	for k := prevStart; k < len(segs); k++ {
		if d := dist[k] + segs[k].Box.DistToPoint(b); d < best {
			best, bestK = d, k
		}
	}
	if bestK < 0 {
		est.LB = euclid
		return est
	}
	est.LB = math.Max(best, euclid)
	for k := bestK; k >= 0; k = prev[k] {
		est.Path = append(est.Path, segs[k])
	}
	for i, j := 0, len(est.Path)-1; i < j; i, j = i+1, j-1 {
		est.Path[i], est.Path[j] = est.Path[j], est.Path[i]
	}
	return est
}

// envIntersects reports whether the footprint touches any envelope box.
func envIntersects(env []geom.MBR, xy geom.MBR) bool {
	for _, e := range env {
		if e.Intersects(xy) {
			return true
		}
	}
	return false
}
