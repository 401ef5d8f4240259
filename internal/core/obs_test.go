package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/obs"
	"surfknn/internal/stats"
)

// TestInstrumentedConcurrentSessions is the registry accuracy gate: many
// sessions query one instrumented TerrainDB concurrently (run under -race by
// the CI gate), and afterwards the process-wide counters must equal the sum
// of the per-query Costs the sessions returned — no lost updates, no double
// counting between the buffer-pool hook and the session hook.
func TestInstrumentedConcurrentSessions(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 60, 17)
	reg := obs.NewRegistry()
	db.Instrument(reg)
	qs := queryPoints(t, db, 4, 19)
	const workers = 8
	const k = 3

	totals := make([]stats.PhaseCost, workers) // per-worker sum of Cost.Total()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			sum := &totals[w]
			for i, q := range qs {
				var res Result
				var err error
				if (w+i)%2 == 0 {
					res, err = s.MR3Ctx(bg, q, k, S1, Options{})
				} else {
					res, err = s.SurfaceRangeCtx(bg, q, db.Mesh.Extent().Width()/4, S2, Options{})
				}
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, i, err)
					return
				}
				tot := res.Cost.Total()
				sum.PoolHits += tot.PoolHits
				sum.PoolMisses += tot.PoolMisses
				sum.RTreeVisits += tot.RTreeVisits
				sum.UpperBounds += tot.UpperBounds
				sum.LowerBounds += tot.LowerBounds
				sum.Iterations += tot.Iterations
				sum.Envelope.Line += tot.Envelope.Line
				sum.Envelope.Wide += tot.Envelope.Wide
				sum.CappedBounds += tot.CappedBounds
			}
		}(w)
	}
	wg.Wait()

	var want stats.PhaseCost
	for _, t2 := range totals {
		want.PoolHits += t2.PoolHits
		want.PoolMisses += t2.PoolMisses
		want.RTreeVisits += t2.RTreeVisits
		want.UpperBounds += t2.UpperBounds
		want.LowerBounds += t2.LowerBounds
		want.Iterations += t2.Iterations
		want.Envelope.Line += t2.Envelope.Line
		want.Envelope.Wide += t2.Envelope.Wide
		want.CappedBounds += t2.CappedBounds
	}
	queries := int64(workers * len(qs))
	if got := reg.QueriesStarted.Value(); got != queries {
		t.Errorf("QueriesStarted = %d, want %d", got, queries)
	}
	if got := reg.QueriesFinished.Value(); got != queries {
		t.Errorf("QueriesFinished = %d, want %d", got, queries)
	}
	if got := reg.PoolHits.Value(); got != want.PoolHits {
		t.Errorf("PoolHits = %d, want %d (sum of per-query costs)", got, want.PoolHits)
	}
	if got := reg.PoolMisses.Value(); got != want.PoolMisses {
		t.Errorf("PoolMisses = %d, want %d", got, want.PoolMisses)
	}
	if got := reg.RTreeVisits.Value(); got != want.RTreeVisits {
		t.Errorf("RTreeVisits = %d, want %d", got, want.RTreeVisits)
	}
	if got := reg.UpperBounds.Value(); got != int64(want.UpperBounds) {
		t.Errorf("UpperBounds = %d, want %d", got, want.UpperBounds)
	}
	if got := reg.LowerBounds.Value(); got != int64(want.LowerBounds) {
		t.Errorf("LowerBounds = %d, want %d", got, want.LowerBounds)
	}
	if got := reg.Iterations.Value(); got != int64(want.Iterations) {
		t.Errorf("Iterations = %d, want %d", got, want.Iterations)
	}
	if got := reg.EnvelopeLine.Value(); got != int64(want.Envelope.Line) || got == 0 {
		t.Errorf("EnvelopeLine = %d, want %d (and > 0)", got, want.Envelope.Line)
	}
	if got := reg.EnvelopeWide.Value(); got != int64(want.Envelope.Wide) {
		t.Errorf("EnvelopeWide = %d, want %d", got, want.Envelope.Wide)
	}
	if got := reg.CappedBounds.Value(); got != int64(want.CappedBounds) {
		t.Errorf("CappedBounds = %d, want %d", got, want.CappedBounds)
	}
	work := reg.Snapshot()["work"].(map[string]any)
	for _, key := range []string{"envelope_floor", "envelope_line", "envelope_witness", "envelope_narrow", "envelope_wide", "capped_bounds"} {
		if _, ok := work[key]; !ok {
			t.Errorf("the registry's work block has no %q", key)
		}
	}
	if got := reg.QueryLatency().Count(); got != queries {
		t.Errorf("latency histogram count = %d, want %d", got, queries)
	}
	if got := reg.DijkstraRelaxations.Value(); got <= 0 {
		t.Errorf("DijkstraRelaxations = %d, want > 0", got)
	}
}

// TestObsNoopKeepsPagesIdentical is the bit-identical guarantee: the same
// query must report exactly the same page counts and results whether or not
// the database is instrumented and whether or not tracing is on — the
// instrumentation observes, it never perturbs.
func TestObsNoopKeepsPagesIdentical(t *testing.T) {
	base := buildDB(t, dem.BH, 16, 50, 7)
	q := queryPoints(t, base, 1, 11)[0]
	plain, err := base.NewSession().MR3Ctx(bg, q, 4, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}

	instr := buildDB(t, dem.BH, 16, 50, 7)
	instr.Instrument(obs.NewRegistry())
	s := instr.NewSession()
	s.SetTracing(true)
	traced, err := s.MR3Ctx(bg, q, 4, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}

	if plain.Cost.Pages() != traced.Cost.Pages() {
		t.Errorf("pages differ: plain %d, instrumented+traced %d",
			plain.Cost.Pages(), traced.Cost.Pages())
	}
	if plain.Metrics().Pages != plain.Cost.Pages() {
		t.Errorf("legacy Metrics().Pages %d != Cost.Pages() %d",
			plain.Metrics().Pages, plain.Cost.Pages())
	}
	if len(plain.Neighbors) != len(traced.Neighbors) {
		t.Fatalf("result sizes differ: %d vs %d", len(plain.Neighbors), len(traced.Neighbors))
	}
	for i := range plain.Neighbors {
		if plain.Neighbors[i].Object.ID != traced.Neighbors[i].Object.ID {
			t.Errorf("neighbour %d differs", i)
		}
	}
}

// TestPhaseBreakdown checks the Cost redesign's core claim: the per-phase
// page counters sum to the legacy total, and the MR3 phases appear in the
// paper's step order.
func TestPhaseBreakdown(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 50, 7)
	q := queryPoints(t, db, 1, 5)[0]
	res, err := db.NewSession().MR3Ctx(bg, q, 4, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantPhases := []string{stats.PhaseKNN2D, stats.PhaseRankC1, stats.PhaseRange2D, stats.PhaseRankC2}
	if len(res.Cost.Phases) != len(wantPhases) {
		t.Fatalf("got %d phases, want %d: %+v", len(res.Cost.Phases), len(wantPhases), res.Cost.Phases)
	}
	for i, p := range res.Cost.Phases {
		if p.Phase != wantPhases[i] {
			t.Errorf("phase %d = %q, want %q", i, p.Phase, wantPhases[i])
		}
	}
	if step1, ok := res.Cost.Phase(stats.PhaseKNN2D); !ok || step1.RTreeVisits == 0 {
		t.Errorf("knn2d phase missing R-tree visits: %+v", step1)
	}
	var sum int64
	for _, p := range res.Cost.Phases {
		sum += p.Pages()
	}
	if sum != res.Cost.Pages() || sum != res.Metrics().Pages {
		t.Errorf("phase pages %d != Cost.Pages %d / Metrics.Pages %d",
			sum, res.Cost.Pages(), res.Metrics().Pages)
	}
}

// TestTraceRecordsPhasesAndIterations: with tracing on, the Result carries a
// trace whose spans include every phase and the per-iteration spans, and the
// trace round-trips through JSON.
func TestTraceRecordsPhasesAndIterations(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 50, 7)
	q := queryPoints(t, db, 1, 5)[0]
	s := db.NewSession()
	s.SetTracing(true)
	res, err := s.MR3Ctx(bg, q, 4, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace == nil {
		t.Fatal("tracing on but Result.Trace is nil")
	}
	if res.Trace.Algo != "mr3" {
		t.Errorf("trace algo = %q, want mr3", res.Trace.Algo)
	}
	names := make(map[string]int)
	for _, sp := range res.Trace.Spans {
		names[sp.Name]++
	}
	for _, want := range []string{stats.PhaseKNN2D, stats.PhaseRankC1, stats.PhaseRange2D, stats.PhaseRankC2} {
		if names[want] != 1 {
			t.Errorf("trace has %d %q spans, want 1 (spans: %v)", names[want], want, names)
		}
	}
	if names["iter"] == 0 {
		t.Error("trace has no per-iteration spans")
	}
	data, err := res.Trace.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := obs.ParseTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Spans) != len(res.Trace.Spans) {
		t.Errorf("round-trip lost spans: %d vs %d", len(back.Spans), len(res.Trace.Spans))
	}

	// Tracing off: no trace, and no spans leak between queries.
	s.SetTracing(false)
	res2, err := s.MR3Ctx(bg, q, 4, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Trace != nil {
		t.Error("tracing off but Result.Trace is non-nil")
	}
}

// TestSlowQueryLogCapturesTrace: with a slow log installed (threshold 0 =
// everything is slow), each query writes a JSON line that includes its phase
// trace even though the session never enabled tracing, and the id of the
// request whose context ran the query.
func TestSlowQueryLogCapturesTrace(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 50, 7)
	reg := obs.NewRegistry()
	var buf bytes.Buffer
	reg.SetSlowLog(obs.NewSlowQueryLog(&buf, 0))
	db.Instrument(reg)
	q := queryPoints(t, db, 1, 5)[0]
	res, err := db.NewSession().MR3Ctx(obs.WithRequestID(bg, "req-7"), q, 3, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	if !sc.Scan() {
		t.Fatal("slow log is empty")
	}
	var entry obs.SlowQuery
	if err := json.Unmarshal(sc.Bytes(), &entry); err != nil {
		t.Fatalf("slow log line is not JSON: %v", err)
	}
	if entry.Algo != "mr3" || entry.K != 3 || entry.RequestID != "req-7" {
		t.Errorf("entry = %+v, want algo mr3, k 3, request id req-7", entry)
	}
	if entry.Pages != res.Cost.Pages() {
		t.Errorf("logged pages %d != query pages %d", entry.Pages, res.Cost.Pages())
	}
	if entry.Trace == nil || len(entry.Trace.Spans) == 0 {
		t.Error("slow entry carries no trace")
	}
	if got := reg.SlowQueries.Value(); got != 1 {
		t.Errorf("SlowQueries = %d, want 1", got)
	}
}

// TestPerCallContext: a cancelled context fails only the call it was passed
// to; the session keeps working afterwards, and the registry classifies the
// cancellation.
func TestPerCallContext(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 30, 9)
	reg := obs.NewRegistry()
	db.Instrument(reg)
	q := queryPoints(t, db, 1, 13)[0]
	s := db.NewSession()

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.MR3Ctx(cancelled, q, 3, S1, Options{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MR3Ctx with cancelled ctx: err = %v, want Canceled", err)
	}
	if got := reg.QueriesCancelled.Value(); got != 1 {
		t.Errorf("QueriesCancelled = %d, want 1", got)
	}
	// The context must not stick: the next query succeeds.
	if _, err := s.MR3Ctx(bg, q, 3, S1, Options{}); err != nil {
		t.Fatalf("MR3 after per-call cancellation: %v", err)
	}
	if _, err := s.EACtx(cancelled, q, 3); !errors.Is(err, context.Canceled) {
		t.Errorf("EACtx with cancelled ctx: err = %v", err)
	}
	if _, err := s.SurfaceRangeCtx(cancelled, q, 100, S1, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("SurfaceRangeCtx with cancelled ctx: err = %v", err)
	}
	if _, _, err := s.DistanceWithAccuracyCtx(cancelled, q, db.Objects()[0].Point, 0.7, S2); !errors.Is(err, context.Canceled) {
		t.Errorf("DistanceWithAccuracyCtx with cancelled ctx: err = %v", err)
	}
	if _, _, err := s.ClosestPairCtx(cancelled, S3, Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("ClosestPairCtx with cancelled ctx: err = %v", err)
	}
	if _, err := s.MR3Ctx(bg, q, 3, S1, Options{}); err != nil {
		t.Fatalf("MR3 after all cancellations: %v", err)
	}
}

// TestOptionConstructors: the functional constructors express every struct
// setting, including the literal zeros the zero-value encoding reserves.
func TestOptionConstructors(t *testing.T) {
	if o := NewOptions(); o != (Options{}) {
		t.Errorf("NewOptions() = %+v, want zero Options", o)
	}
	o := NewOptions(WithStep2Accuracy(0), WithOverlapThreshold(0)).withDefaults()
	if o.Step2Accuracy != 0 || o.OverlapThreshold != 0 {
		t.Errorf("literal zeros resolved to %+v, want 0/0", o)
	}
	o = NewOptions(WithStep2Accuracy(0.5), WithOverlapThreshold(0.9)).withDefaults()
	if o.Step2Accuracy != 0.5 || o.OverlapThreshold != 0.9 {
		t.Errorf("explicit fractions resolved to %+v", o)
	}
	o = NewOptions()
	if od := o.withDefaults(); od.Step2Accuracy != 0.8 || od.OverlapThreshold != 0.8 {
		t.Errorf("constructor default resolved to %+v, want paper defaults", od)
	}
	o = NewOptions(WithIOIntegration(false), WithDummyLB(false))
	if !o.DisableIOIntegration || !o.DisableDummyLB {
		t.Errorf("boolean options = %+v", o)
	}
	// Constructor form answers identically to the sentinel struct form.
	db := buildDB(t, dem.BH, 16, 40, 3)
	q := queryPoints(t, db, 1, 5)[0]
	viaStruct, err := db.NewSession().MR3Ctx(bg, q, 4, S1, Options{Step2Accuracy: -1, OverlapThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	viaOpts, err := db.NewSession().MR3Ctx(bg, q, 4, S1, NewOptions(WithStep2Accuracy(0), WithOverlapThreshold(0)))
	if err != nil {
		t.Fatal(err)
	}
	if viaStruct.Cost.Pages() != viaOpts.Cost.Pages() {
		t.Errorf("constructor form pages %d != sentinel form pages %d",
			viaOpts.Cost.Pages(), viaStruct.Cost.Pages())
	}
}
