package core

import (
	"math"

	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/obs"
	"surfknn/internal/sdn"
	"surfknn/internal/stats"
	"surfknn/internal/workload"
)

// Options tunes query execution. The zero value enables every optimisation
// from the paper (integrated I/O regions, dummy lower bounds).
type Options struct {
	// DisableIOIntegration turns off merging of significantly overlapping
	// candidate I/O regions (§4.2, Fig. 9 studies this switch).
	DisableIOIntegration bool
	// DisableDummyLB turns off the envelope-based dummy-lower-bound
	// optimisation (§4.2.2).
	DisableDummyLB bool
	// Step2Accuracy is the lb/ub accuracy at which step 2 stops tightening
	// the k-th neighbour's upper bound. Zero (the zero value) selects the
	// paper's default 0.8; to request a literal 0 — accept any bound, no
	// tightening — pass a negative value.
	Step2Accuracy float64
	// OverlapThreshold is the minimum overlap fraction for merging I/O
	// regions. Zero (the zero value) selects the paper's default 0.8 ("e.g.,
	// over 80%"); to request a literal 0 — merge any intersecting regions —
	// pass a negative value.
	OverlapThreshold float64
}

func (o Options) withDefaults() Options {
	o.Step2Accuracy = resolveFraction(o.Step2Accuracy, 0.8)
	o.OverlapThreshold = resolveFraction(o.OverlapThreshold, 0.8)
	return o
}

// resolveFraction maps an Options fraction to its effective value: the zero
// value keeps the paper's default, and a negative input selects a literal 0
// (which would otherwise be unreachable, since 0 is the unset marker).
func resolveFraction(v, def float64) float64 {
	switch {
	case v == 0:
		return def
	case v < 0:
		return 0
	default:
		return v
	}
}

// Neighbor is one result entry with its final distance range.
type Neighbor struct {
	Object workload.Object
	LB, UB float64
}

type candState uint8

const (
	candActive candState = iota
	candIn
	candOut
)

type candidate struct {
	obj    workload.Object
	lb, ub float64
	// lbPath is a per-slot copy of the last lower-bound path. The estimator
	// returns paths aliasing its own scratch, so it is copied here; the
	// buffer is retained across queries by the candidate slab.
	lbPath []sdn.Segment
	state  candState
	// capRes is the resolution of the bound that was stopped at the
	// exclusion bound — the SDN resolution of a lower bound (updateLB), or
	// PathnetResolution for the pathnet search (updateUB) — and 0 when every
	// bound ran to its value. A capped candidate is out with lb still its
	// value before that bound; safeRegion, the one reader of an excluded
	// candidate's lb, completes it (complete).
	capRes float64
	// Cached I/O region (the ellipse MBR of regionOf). It depends only on
	// ub, which each iteration reads several times between changes
	// (grouping, UB update, LB update), so it is memoised here and
	// invalidated by setUB.
	region   geom.MBR
	regionOK bool
}

// setUB lowers the candidate's upper bound and invalidates the cached I/O
// region that was derived from the old bound.
func (c *candidate) setUB(v float64) {
	c.ub = v
	c.regionOK = false
}

// ranker runs the surface-distance ranking of §4.2 over a candidate set.
// One ranker lives inside each Session and is reused query after query: the
// candidate slab and every ordering/grouping buffer below are retained, so
// a warm ranking pass performs no allocation. All pointer scratch
// (targets, alive) points into the cands slab, which therefore must never
// reallocate while a query runs — ensure() sizes it before ranking starts.
type ranker struct {
	s     *Session
	q     mesh.SurfacePoint
	k     int
	sched Schedule
	opt   Options
	pc    *stats.PhaseCost // open phase the work counters accumulate into

	cands       []candidate  // candidate slab (path buffers retained per slot)
	targets     []*candidate // refinement-target scratch
	alive       []*candidate // aliveCands output; sorted in place
	groupRegion []geom.MBR   // running merged region per I/O group
	groupOf     []int32      // group index per target (parallel to targets)
	resultsBuf  []Neighbor   // results() output; aliased by Result.Neighbors

	// tighten keeps refining even after the k-set is determined, until the
	// k-th neighbour's range reaches Step2Accuracy — the extra work step 2
	// performs to obtain a tight search radius for step 3.
	tighten bool
}

// ensure grows the per-candidate buffers to hold n candidates. Runs at
// query open (not on the annotated hot path); the ranking loops below then
// only ever grow slices within capacity.
func (r *ranker) ensure(n int) {
	if cap(r.cands) < n {
		r.cands = make([]candidate, 0, n)
	}
	if cap(r.targets) < n {
		r.targets = make([]*candidate, 0, n)
	}
	if cap(r.alive) < n {
		r.alive = make([]*candidate, 0, n)
	}
	if cap(r.groupRegion) < n {
		r.groupRegion = make([]geom.MBR, 0, n)
	}
	if cap(r.groupOf) < n {
		r.groupOf = make([]int32, 0, n)
	}
	if cap(r.resultsBuf) < n {
		r.resultsBuf = make([]Neighbor, 0, n)
	}
}

// begin opens a ranking pass over the session's open cost phase and
// truncates the candidate slab.
func (r *ranker) begin(s *Session, q mesh.SurfacePoint, k int, sched Schedule, opt Options, tighten bool) {
	r.s, r.q, r.k, r.sched, r.opt, r.tighten = s, q, k, sched, opt, tighten
	r.pc = s.curPhase()
	r.cands = r.cands[:0]
}

// addCand appends one candidate to the slab, reusing the slot's retained
// path buffer. Capacity is ensured at query open, so the slab never
// reallocates here and candidate pointers stay valid.
func (r *ranker) addCand(o workload.Object) {
	n := len(r.cands)
	r.cands = r.cands[:n+1]
	c := &r.cands[n]
	c.obj = o
	c.lb = r.q.Pos.Dist(o.Point.Pos) // Euclidean floor (§4.2)
	c.ub = math.Inf(1)
	c.lbPath = c.lbPath[:0]
	c.state = candActive
	c.capRes = 0
	c.regionOK = false
}

// rank ranks the objects and returns the k nearest by the reference
// surface metric, with their final ranges. The work counters accumulate
// into the session's open cost phase. A non-nil error means a paged fetch
// failed, in which case the bounds are unreliable and the query must not
// pretend to have an answer. The returned slice is session scratch, valid
// until the session's next ranking pass.
func (s *Session) rank(q mesh.SurfacePoint, objs []workload.Object, k int, sched Schedule, opt Options, tighten bool) ([]Neighbor, error) {
	opt = opt.withDefaults()
	if k > len(objs) {
		k = len(objs)
	}
	r := &s.rk
	r.begin(s, q, k, sched, opt, tighten)
	for _, o := range objs {
		r.addCand(o)
	}
	r.pc.Candidates += len(objs)
	if err := r.run(); err != nil {
		return nil, err
	}
	return r.results(), nil
}

func (r *ranker) run() error {
	steps := r.sched.Steps()
	for it := 0; it < steps; it++ {
		if err := r.s.interrupted(); err != nil {
			return err
		}
		if r.classify() && !r.needTightening() {
			return nil
		}
		targets := r.refinementTargets()
		if len(targets) == 0 {
			return nil
		}
		r.pc.Iterations++
		ri := r.sched.rung(it)
		span := r.iterSpan(it, ri, len(targets))
		r.iterate(targets, ri, r.kthSmallestUB())
		r.s.endSpan(span)
	}
	if r.classify() && !r.needTightening() {
		return nil
	}
	// Ladders exhausted with overlapping ranges left: settle the remaining
	// candidates with the reference (pathnet) distance, as the refinement
	// step of filter-and-refine.
	for i := range r.cands {
		c := &r.cands[i]
		if c.state == candOut {
			continue
		}
		if c.ub-c.lb < 1e-9*(1+c.ub) {
			continue
		}
		// An unreachable candidate keeps ub = +Inf and can never displace a
		// finite neighbour.
		r.settle(c)
		r.pc.UpperBounds++
	}
	r.classify()
	return nil
}

// settle closes the candidate's range at its reference (pathnet) distance.
func (r *ranker) settle(c *candidate) {
	d := r.s.settleDistance(r.q, c.obj.Point, c.ub, r.regionOf(c))
	c.setUB(d)
	c.lb = d
}

// iterSpan opens a trace span for one LOD refinement iteration, labelled
// with the iteration index, the rung's DMTM/SDN resolutions and the number
// of refinement targets. Returns obs.NoSpan (and allocates nothing) when the
// query records no trace.
func (r *ranker) iterSpan(it, ri int, targets int) obs.SpanID {
	if r.s.cost.trace == nil {
		return obs.NoSpan
	}
	return r.s.startSpan("iter", map[string]float64{
		"i":       float64(it),
		"dm_res":  rungs[ri].dmtm,
		"sdn_res": rungs[ri].msdn,
		"targets": float64(targets),
	})
}

// needTightening reports whether step-2 style tightening still wants work:
// the k-th candidate's own range accuracy has not reached Step2Accuracy.
func (r *ranker) needTightening() bool {
	if !r.tighten {
		return false
	}
	c := r.kthCand()
	if c == nil || math.IsInf(c.ub, 1) {
		return true
	}
	return c.lb/c.ub < r.opt.Step2Accuracy
}

// refinementTargets returns the candidates to refine this iteration: the
// active ones, plus (when tightening) the already-resolved in-set. The
// returned slice is the ranker's target scratch.
func (r *ranker) refinementTargets() []*candidate {
	out := r.targets[:0]
	for i := range r.cands {
		c := &r.cands[i]
		// An in-set candidate with no finite upper bound yet always needs
		// work (without the explicit check, Step2Accuracy 0 would compute
		// lb < 0·Inf = NaN and never tighten, leaving step 2 unbounded).
		keep := c.state == candActive ||
			(r.tighten && c.state == candIn &&
				(math.IsInf(c.ub, 1) || c.lb < r.opt.Step2Accuracy*c.ub))
		if !keep {
			continue
		}
		n := len(out)
		out = out[:n+1]
		out[n] = c
	}
	r.targets = out
	return out
}

// regionOf returns the candidate's current I/O region: the MBR of the
// ellipse with foci at the query and the candidate and constant equal to
// the current upper bound — or the whole terrain before any bound exists
// ("the I/O region is initially set to the entire terrain").
func (r *ranker) regionOf(c *candidate) geom.MBR {
	if c.regionOK {
		return c.region
	}
	m := r.s.db.Extent
	if !math.IsInf(c.ub, 1) {
		if e := geom.NewEllipse(r.q.XY(), c.obj.Point.XY(), c.ub).MBR(); !e.IsEmpty() {
			m = e
		}
	}
	c.region, c.regionOK = m, true
	return m
}

// groupRegions merges candidate I/O regions that overlap by at least the
// configured threshold (§4.1: "their I/O regions can be combined if they
// are significantly overlapped (e.g., over 80%)"). Groups are stored flat:
// groupRegion[g] is the running merged region, and groupOf[i] assigns
// targets[i] to its group, preserving the per-group candidate order the
// pointer-based grouping produced. Returns the group count.
func (r *ranker) groupRegions(targets []*candidate) int {
	r.groupRegion = r.groupRegion[:0]
	r.groupOf = r.groupOf[:0]
	for _, c := range targets {
		reg := r.regionOf(c)
		gi := int32(-1)
		if !r.opt.DisableIOIntegration {
			for g := range r.groupRegion {
				if r.groupRegion[g].OverlapFraction(reg) >= r.opt.OverlapThreshold {
					r.groupRegion[g] = r.groupRegion[g].Union(reg)
					gi = int32(g)
					break
				}
			}
		}
		if gi < 0 {
			n := len(r.groupRegion)
			r.groupRegion = r.groupRegion[:n+1]
			r.groupRegion[n] = reg
			gi = int32(n)
		}
		n := len(r.groupOf)
		r.groupOf = r.groupOf[:n+1]
		r.groupOf[n] = gi
	}
	return len(r.groupRegion)
}

// iterate performs one resolution iteration over the targets at rung ri;
// exclude is the bound a lower bound must exceed to rule its candidate out
// (the k-th upper bound for k-NN, the radius for a range query).
func (r *ranker) iterate(targets []*candidate, ri int, exclude float64) {
	numGroups := r.groupRegions(targets)
	tm, level := r.s.db.rungTime[ri], rungLevel[ri]
	for gi := 0; gi < numGroups; gi++ {
		// One fetch per integrated I/O region: DMTM connectivity at this
		// LOD plus the SDN segments of this level. Both are paid for page by
		// page; the bounds read the in-memory level network, pathnet and
		// MSDN tables the records mirror.
		r.s.touchDMTM(r.groupRegion[gi], tm)
		r.s.touchSDN(r.groupRegion[gi], level)

		for ti, c := range targets {
			if r.groupOf[ti] != int32(gi) {
				continue
			}
			r.updateUB(c, ri)
			r.updateLB(c, rungs[ri].msdn, exclude)
		}
	}
}

// updateUB refines the candidate's upper bound at rung ri's DMTM level
// (§4.2.1). The bound is kept as the running minimum, so a failed or looser
// estimate never hurts correctness.
func (r *ranker) updateUB(c *candidate, ri int) {
	r.pc.UpperBounds++
	if ri == pathnetRung {
		r.pathnetUB(c, r.exclusionCap())
		return
	}
	// The whole level network's distance, off the shared search: never
	// looser than a search restricted to the region, and when it lowers
	// c.ub every node p of its path has |qp| + |po| <= its length < c.ub,
	// so the path lies inside the ellipse whose pages iterate touched.
	if ub := r.s.est.UpperBound(r.s.db.Mesh, r.q, c.obj.Point, r.s.db.rungTime[ri]); ub < c.ub {
		c.setUB(ub)
	}
}

// pathnetUB is updateUB at the pathnet rung, with the shared search capped
// at min(c.ub, limit) (pathnet.Querier.FromSource): a distance d at or below
// the cap is exact; one reported above it decides as much as the exact one:
//
//   - d >= c.ub: every DMTM-100 % path is also a pathnet path, so up to the
//     rounding of their sums c.ub is never below d_N, and d_N >= c.ub is the
//     tie d_N = c.ub. The range closes there (updateLB then skips the
//     candidate). Clipping only removes paths, so no clipped search could
//     lower the bound either. A report above c.ub is such a d.
//   - Otherwise a report above the cap is one above limit < c.ub: the
//     settled bound would put lb above limit, the exclusion bound, so the
//     candidate is marked out as updateLB marks it (see there), for
//     complete to finish. The one case it cannot stand for is a clipped
//     distance at or above c.ub although the unclipped one is below it,
//     where the range would have stayed open; complete then settles the
//     candidate as the ladders-exhausted loop does.
func (r *ranker) pathnetUB(c *candidate, limit float64) {
	d := r.s.path.FromSource(r.q, c.obj.Point, math.Min(c.ub, limit))
	if d >= c.ub {
		c.lb = c.ub
		return
	}
	if d > limit {
		c.state, c.capRes = candOut, PathnetResolution
		r.pc.CappedBounds++
		return
	}
	d = r.s.clippedDistance(r.q, c.obj.Point, c.ub, r.regionOf(c))
	if d < c.ub {
		c.setUB(d)
		// At the pathnet rung d is d_N, the pathnet distance at
		// Config.SteinerPerEdge points per edge, and MR3 answers the exact
		// k-NN under d_N. d_N >= d_S, so raising lb to d_N does not bound
		// d_S: it follows the paper's convention of taking DMTM 200% as the
		// surface distance (§5.3). ROADMAP.md item 12 measures the
		// consequence: BH recall@10 0.948 against exact d_S.
		if d > c.lb {
			c.lb = d
		}
	}
}

// updateLB refines the candidate's lower bound at the given SDN resolution
// (§4.2.2). It first asks whether the estimation's outcome is already
// determined, and runs only the chains whose result can still matter, each
// only as exactly as the decision reading it needs:
//
//   - A closed range (lb >= ub) takes no estimation. Whatever est a chain
//     returned, applyLB would leave min(max(lb, est), ub) = ub, and lb already
//     equals ub — the pathnet iteration's updateUB has just set both to d_N,
//     or the query sits on the object and both are 0 — so there is nothing to
//     write; only a rounding inversion (lb an ulp above ub) is clamped, as
//     applyLB clamps it. ub only falls and lb only rises or is clamped to ub,
//     so a closed range stays closed for the rest of the pass: the lbPath a
//     skipped estimation would have stored is read by later updateLB calls on
//     this candidate alone, and those are skipped too. The group's SDN pages
//     were touched by iterate before this call, so the I/O is unchanged.
//   - The dummy lower bound (the envelope estimate around the previous path)
//     over-estimates the true bound at this resolution, so if IT cannot pass
//     kthUB the true bound cannot re-rank the candidate either and the full
//     computation is skipped. Only that comparison is used, and
//     sdn.EnvelopeExceeds settles it with the cheapest chain that can (none
//     when lb alone passes kthUB); its header carries the argument that the
//     decision is the one the envelope's value gives.
//   - The full chain runs under the limit x = exclusionCap(). A bound at
//     or below x is the exact one. Above x with ub <= x, applyLB would
//     close the range at ub, which is written here without the value.
//     Above x with ub > x, the next classify excludes the candidate — lb
//     would rise above x, and x is at least that classify's own exclusion
//     bound — so it is marked out now, its resolution kept for complete;
//     nothing reads it before that classify, which then decides as it
//     would have.
//
// A candidate pathnetUB has just marked out takes no estimation either: the
// bound it stands for closes the range.
//
// LowerBounds therefore counts the estimations that ran, not the calls.
func (r *ranker) updateLB(c *candidate, sdnRes float64, kthUB float64) {
	if c.state == candOut {
		return // pathnetUB capped it where its range would have closed
	}
	if c.lb >= c.ub {
		c.lb = c.ub
		return
	}
	r.pc.LowerBounds++
	region := r.regionOf(c)
	q3, o3 := r.q.Pos, c.obj.Point.Pos
	if !r.opt.DisableDummyLB && len(c.lbPath) > 0 {
		ms := r.s.db.MSDN
		if !ms.EnvelopeExceeds(&r.s.sdnSc, q3, o3, region, sdnRes, c.lbPath, 2*ms.Spacing, c.lb, kthUB) {
			return
		}
	}
	limit := r.exclusionCap()
	est := r.s.db.MSDN.LowerBoundScratch(&r.s.sdnSc, q3, o3, region, sdnRes, limit)
	switch {
	case est.LB <= limit:
		r.applyLB(c, est)
	case c.ub <= limit:
		c.lb = c.ub
	default:
		c.state, c.capRes = candOut, sdnRes
		r.pc.CappedBounds++
	}
}

// exclusionCap returns the limit a bound of this ranking is computed to:
// the exclusion bound above which classify rules a candidate out, from the
// k-th upper bound as it stands now — it only falls until that classify, so
// a bound above the cap now is above classify's own — for a k-NN ranking
// with more than k candidates outside step 2's tightening, the rankings in
// which exclusion is all a bound above it decides; +Inf otherwise (a range
// query ranks all its candidates with k = their number). safeRegion
// completes what it caps.
func (r *ranker) exclusionCap() float64 {
	if r.tighten || len(r.cands) <= r.k {
		return math.Inf(1)
	}
	return excludeAbove(r.kthSmallestUB())
}

// complete finishes a capped candidate: the bound its ranking stopped, run
// to its value and applied as the ranking would have applied it (a lower
// bound's region is the same: a capped candidate's ub no longer changes).
// The bound was counted when it was capped.
func (r *ranker) complete(c *candidate) {
	//lint:ignore float-eq capRes is a tag holding one of the exact resolution constants it was set from, never a computed value
	switch c.capRes {
	case 0:
		return
	case PathnetResolution:
		r.pathnetUB(c, math.Inf(1))
		if c.lb < c.ub { // the clipped search found no path below c.ub
			r.settle(c)
		}
	default:
		est := r.s.db.MSDN.LowerBoundScratch(&r.s.sdnSc, r.q.Pos, c.obj.Point.Pos, r.regionOf(c), c.capRes, math.Inf(1))
		r.applyLB(c, est)
	}
	c.capRes = 0
}

func (r *ranker) applyLB(c *candidate, est sdn.LowerEstimate) {
	if est.LB > c.lb {
		c.lb = est.LB
	}
	if c.lb > c.ub {
		c.lb = c.ub // the reference metric sits inside [lb, ub]
	}
	if len(est.Path) > 0 {
		// est.Path aliases the SDN scratch: copy it into the slot's retained
		// buffer before the next lower-bound call overwrites it.
		c.lbPath = append(c.lbPath[:0], est.Path...)
	}
}

// sortCandsByUB orders the pointer scratch by ascending upper bound with a
// stable insertion sort: candidate sets are small (tens), and unlike
// sort.Slice it performs no allocation on the hot path.
func sortCandsByUB(a []*candidate) {
	for i := 1; i < len(a); i++ {
		c := a[i]
		j := i - 1
		for j >= 0 && a[j].ub > c.ub {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = c
	}
}

// kthCand returns the candidate holding the k-th smallest upper bound
// among non-out candidates, or nil when fewer than k remain — or when k was
// clamped to 0 by an empty candidate set (every object deleted).
func (r *ranker) kthCand() *candidate {
	alive := r.aliveCands()
	if r.k < 1 || len(alive) < r.k {
		return nil
	}
	sortCandsByUB(alive)
	return alive[r.k-1]
}

// kthSmallestUB returns the k-th smallest upper bound among non-out
// candidates.
func (r *ranker) kthSmallestUB() float64 {
	if c := r.kthCand(); c != nil {
		return c.ub
	}
	return math.Inf(1)
}

// classify updates candidate states and reports whether the k-set is
// determined: the k alive candidates with the smallest upper bounds are
// separated from every other alive candidate's lower bound (the VA-file
// termination rule ub(p_k) <= lb(p_{k+1}) generalised to sets).
func (r *ranker) classify() bool {
	alive := r.aliveCands()
	if len(alive) <= r.k {
		for _, c := range alive {
			c.state = candIn
		}
		return true
	}
	sortCandsByUB(alive)
	x := excludeAbove(alive[r.k-1].ub)
	// Exclusion: a candidate whose lower bound exceeds the k-th upper
	// bound can never enter the result.
	for _, c := range alive[r.k:] {
		if c.state == candActive && c.lb > x {
			c.state = candOut
		}
	}
	alive = r.aliveCands()
	if len(alive) <= r.k {
		for _, c := range alive {
			c.state = candIn
		}
		return true
	}
	sortCandsByUB(alive)
	const eps = classifyEps
	// Inclusion: fewer than k candidates could possibly be closer.
	for i, c := range alive[:r.k] {
		if c.state != candActive {
			continue
		}
		closer := 0
		for j, o := range alive {
			if j != i && o.lb <= c.ub+eps {
				closer++
			}
		}
		if closer <= r.k-1 {
			c.state = candIn
		}
	}
	// Termination: the k smallest-ub alive candidates beat everyone else's
	// lower bound.
	maxTopUB := alive[r.k-1].ub
	minRestLB := math.Inf(1)
	for _, c := range alive[r.k:] {
		if c.lb < minRestLB {
			minRestLB = c.lb
		}
	}
	return maxTopUB <= minRestLB+eps
}

// classifyEps is classify's slack, relative to the k-th upper bound and
// absolute.
const classifyEps = 1e-9

// excludeAbove is the bound a lower bound must pass for classify to rule
// its candidate out, given the k-th upper bound. It is monotone in kthUB,
// which only falls during a ranking.
func excludeAbove(kthUB float64) float64 {
	return kthUB*(1+classifyEps) + classifyEps
}

// aliveCands fills the alive scratch with pointers to every non-out slab
// candidate, in slab order. Each call retruncates the same buffer, so the
// previous call's view dies with it.
func (r *ranker) aliveCands() []*candidate {
	out := r.alive[:0]
	for i := range r.cands {
		if r.cands[i].state != candOut {
			n := len(out)
			out = out[:n+1]
			out[n] = &r.cands[i]
		}
	}
	r.alive = out
	return out
}

// results returns the k nearest candidates, ranked by upper bound, in the
// ranker's results buffer (aliased by Result.Neighbors).
func (r *ranker) results() []Neighbor {
	alive := r.aliveCands()
	sortCandsByUB(alive)
	if len(alive) > r.k {
		alive = alive[:r.k]
	}
	out := r.resultsBuf[:len(alive)]
	for i, c := range alive {
		out[i] = Neighbor{Object: c.obj, LB: c.lb, UB: c.ub}
	}
	return out
}
