// Package core implements the paper's contribution: surface k-NN (sk-NN)
// query processing by Multi-Resolution Range Ranking (MR3, §4), together
// with the Enhanced Approximation (EA) benchmark algorithm it is evaluated
// against (§5.2). Distance ranges come from the DMTM upper bounds
// (internal/multires + internal/pathnet) and MSDN lower bounds
// (internal/sdn); terrain data flows through the paged stores in
// internal/storage so that every experiment reports disk pages accessed.
package core

// PathnetResolution marks the DMTM ">100 %" level: the Steiner-refined
// pathnet (the paper's "DMTM resolution 200%"). Its distance d_N, at
// Config.SteinerPerEdge points per edge, is what MR3 answers exactly; the
// paper takes it as the surface distance, but d_N >= d_S.
const PathnetResolution = 2.0

// rungs is the one resolution table every schedule walks (§5.3), coarsest
// first: rung i pairs a DMTM resolution with an MSDN resolution. S1 steps
// through every rung, S2 and S3 skip some. The last rung is the pathnet.
var rungs = [...]struct{ dmtm, msdn float64 }{
	{0.005, 0.25},
	{0.25, 0.375},
	{0.5, 0.5},
	{0.75, 0.75},
	{1.0, 1.0},
	{PathnetResolution, 1.0},
}

// pathnetRung is the index of the pathnet rung.
const pathnetRung = len(rungs) - 1

// The ladders derived from rungs, which must not be modified:
//
//   - DMTMLadder lists the sub-pathnet DMTM resolutions, whose level networks
//     assembly materialises. A level is keyed by its collapse time, so two
//     rungs that round to one time on a small terrain share a table.
//   - SDNLadder lists the distinct MSDN resolutions, whose segments are
//     materialised in storage. An SDN "level" is an index into it.
//   - rungLevel is each rung's SDN level.
var DMTMLadder, SDNLadder, rungLevel = ladders()

func ladders() (dmtm, msdn []float64, level [len(rungs)]int32) {
	for i, r := range rungs {
		if i != pathnetRung {
			dmtm = append(dmtm, r.dmtm)
		}
		if n := len(msdn); n == 0 || msdn[n-1] < r.msdn {
			msdn = append(msdn, r.msdn)
		}
		level[i] = int32(len(msdn) - 1)
	}
	return dmtm, msdn, level
}

// Schedule is one of the paper's three resolution step-length schedules
// (§5.3): S1, S2 or S3, the closed set the wire, SKQL and every caller
// name. Each step of a schedule is a rung of one resolution table, so no
// schedule asks for a resolution whose tables assembly did not materialise.
// Any other Schedule value is a programming error, and a query given one
// panics.
type Schedule uint8

const (
	// S1 (s=1) takes every rung: DMTM 0.5, 25, 50, 75, 100, 200 %; MSDN 25,
	// 37.5, 50, 75, 100 %.
	S1 Schedule = iota + 1
	// S2 (s=2): DMTM 0.5, 50, 100, 200 %; MSDN 25, 50, 100 %.
	S2
	// S3 (s=3): DMTM 0.5, 100, 200 %; MSDN 25, 100 %.
	S3
)

// schedules lists each schedule's rungs, one per refinement iteration.
var schedules = [...][]uint8{
	S1: {0, 1, 2, 3, 4, 5},
	S2: {0, 2, 4, 5},
	S3: {0, 4, 5},
}

// walk returns the schedule's rungs.
func (s Schedule) walk() []uint8 {
	if s < S1 || s > S3 {
		panic("core: a Schedule is S1, S2 or S3")
	}
	return schedules[s]
}

// Steps returns the number of refinement iterations in the schedule.
func (s Schedule) Steps() int { return len(s.walk()) }

// At returns the (DMTM resolution, MSDN resolution) pair of iteration i;
// past the last step the last step's pair keeps being used.
func (s Schedule) At(i int) (dmtm, msdn float64) {
	r := rungs[s.rung(i)]
	return r.dmtm, r.msdn
}

// rung returns the rung of iteration i, the last step's past the end.
func (s Schedule) rung(i int) int {
	w := s.walk()
	return int(w[min(i, len(w)-1)])
}
