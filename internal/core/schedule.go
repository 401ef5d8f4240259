// Package core implements the paper's contribution: surface k-NN (sk-NN)
// query processing by Multi-Resolution Range Ranking (MR3, §4), together
// with the Enhanced Approximation (EA) benchmark algorithm it is evaluated
// against (§5.2). Distance ranges come from the DMTM upper bounds
// (internal/multires + internal/pathnet) and MSDN lower bounds
// (internal/sdn); terrain data flows through the paged stores in
// internal/storage so that every experiment reports disk pages accessed.
package core

import "math"

// SDNLadder lists the SDN resolutions materialised in storage; an SDN
// "level" is an index into this ladder (§5.3 uses 25–100 %).
var SDNLadder = []float64{0.25, 0.375, 0.5, 0.75, 1.0}

// DMTMLadder lists the sub-pathnet DMTM resolutions whose level networks are
// materialised at assembly (the paper's schedules use no other). A level is
// keyed by its collapse time, Tree.TimeForResolution, so two rungs that
// round to one time on a small terrain share a table; a custom Schedule may
// name any other resolution, whose network the session builds on first use.
var DMTMLadder = []float64{0.005, 0.25, 0.5, 0.75, 1.0}

// PathnetResolution marks the DMTM ">100 %" level: the Steiner-refined
// pathnet (the paper's "DMTM resolution 200%", where dN = dS by
// definition).
const PathnetResolution = 2.0

// Schedule is a resolution step-length schedule (§5.3). Iteration i uses
// DMTM[i] and MSDN[min(i, len-1)]; once a ladder is exhausted its last
// entry keeps being used.
type Schedule struct {
	Name string
	DMTM []float64
	MSDN []float64
}

// The paper's three step-length schedules (§5.3).
var (
	// S1 (s=1): DMTM 0.5, 25, 50, 75, 100, 200 %; MSDN 25, 37.5, 50, 75, 100 %.
	S1 = Schedule{
		Name: "s=1",
		DMTM: []float64{0.005, 0.25, 0.5, 0.75, 1.0, PathnetResolution},
		MSDN: []float64{0.25, 0.375, 0.5, 0.75, 1.0},
	}
	// S2 (s=2): DMTM 0.5, 50, 100, 200 %; MSDN 25, 50, 100 %.
	S2 = Schedule{
		Name: "s=2",
		DMTM: []float64{0.005, 0.5, 1.0, PathnetResolution},
		MSDN: []float64{0.25, 0.5, 1.0},
	}
	// S3 (s=3): DMTM 0.5, 100, 200 %; MSDN 25, 100 %.
	S3 = Schedule{
		Name: "s=3",
		DMTM: []float64{0.005, 1.0, PathnetResolution},
		MSDN: []float64{0.25, 1.0},
	}
)

// Steps returns the number of refinement iterations in the schedule.
func (s Schedule) Steps() int {
	if len(s.DMTM) > len(s.MSDN) {
		return len(s.DMTM)
	}
	return len(s.MSDN)
}

// At returns the (DMTM resolution, MSDN resolution) pair of iteration i,
// clamping each ladder to its last entry.
func (s Schedule) At(i int) (dmtm, msdn float64) {
	di := i
	if di >= len(s.DMTM) {
		di = len(s.DMTM) - 1
	}
	mi := i
	if mi >= len(s.MSDN) {
		mi = len(s.MSDN) - 1
	}
	return s.DMTM[di], s.MSDN[mi]
}

// SDNLevel maps an MSDN resolution to its storage level (nearest ladder
// entry).
func SDNLevel(res float64) int32 {
	best := 0
	bestD := math.Inf(1)
	for i, r := range SDNLadder {
		if d := math.Abs(r - res); d < bestD {
			best, bestD = i, d
		}
	}
	return int32(best)
}
