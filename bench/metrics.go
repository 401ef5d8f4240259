package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"time"
)

// metricDef names one metric and its unit. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them (the smoke test keeps
// the two in step).
type metricDef struct {
	name, unit string
}

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"pages_per_query", "pages"},
	{"server_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_evictions", "count"},
	{"server.rejected", "count"},
	{"server.overhead_p50_us", "us"},
	{"server.encode_us", "us"},
	{"sklang.parse_plan_us", "us"},
	{"core.engine_cpu_ms", "ms"},
	{"core.rank_c1_ms", "ms"},
	{"core.rank_c2_ms", "ms"},
	{"core.knn2d_us", "us"},
	{"core.range2d_us", "us"},
	{"core.iterations_per_query", "count"},
	{"core.upper_bounds_per_query", "count"},
	{"core.lower_bounds_per_query", "count"},
	{"core.session_checkout_us", "us"},
	{"core.build_s", "s"},
	{"core.snapshot_load_s", "s"},
	{"core.snapshot_mb", "MB"},
	{"storage.pool_hit_ratio", "ratio"},
	{"storage.misses_per_query", "count"},
	{"storage.evictions_per_query", "count"},
	{"storage.get_hit_ns", "ns"},
	{"storage.get_miss_ns", "ns"},
	{"index.rtree_visits_per_query", "count"},
	{"index.knn2d_us", "us"},
	{"pathnet.relaxations_per_query", "count"},
	{"pathnet.ns_per_relaxation", "ns"},
	{"graph.dijkstra_csr_us", "us"},
	{"multires.upper_bound_us", "us"},
	{"sdn.lower_bound_us", "us"},
	{"objstore.updates_applied", "count"},
	{"objstore.epochs_created", "count"},
	{"objstore.epochs_reclaimed", "count"},
	{"objstore.apply_us", "us"},
	{"objstore.update_p50_ms", "ms"},
	{"objstore.update_p95_ms", "ms"},
	{"continuous.region_hit_ratio", "ratio"},
	{"continuous.invalidations", "count"},
	{"continuous.revalidations", "count"},
	{"continuous.move_hit_us", "us"},
	{"continuous.move_miss_ms", "ms"},
	{"shard.calls_per_query", "count"},
	{"shard.pruned_per_query", "count"},
	{"shard.errors", "count"},
	{"shard.coord_mean_ms", "ms"},
	{"shard.fleet_tax_ms", "ms"},
	{"loadgen.cpu_s", "s"},
	{"trace.overhead_ratio", "ratio"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what one run reports: the contract's result line plus what a
// reader needs to trust it.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Trace     bool    `json:"trace"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Errors are the first few reasons ops failed.
	Errors []string `json:"errors,omitempty"`
	// Ops counts the timed window's ops by kind; Samples counts what each
	// timing percentile was taken over.
	Ops     map[string]int         `json:"ops"`
	Samples map[string]int         `json:"samples"`
	Metrics map[string]metricValue `json:"metrics"`
}

// sorted returns a sorted copy.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile is the q-quantile of sorted values by nearest rank; 0 when empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func median(v []float64) float64 { return quantile(sorted(v), 0.5) }

// latenciesMS returns the latencies (ms) of the ok samples pick selects.
func latenciesMS(samples []sample, pick func(*sample) bool) []float64 {
	var out []float64
	for i := range samples {
		if s := &samples[i]; s.ok && pick(s) {
			out = append(out, float64(s.latency())/1e6)
		}
	}
	return sorted(out)
}

func okCount(samples []sample) int {
	n := 0
	for i := range samples {
		if samples[i].ok {
			n++
		}
	}
	return n
}

// result boils the outcome down to the named metrics.
func (oc *outcome) result() *runResult {
	cfg := oc.cfg
	r := &runResult{
		Workload: cfg.workload.name, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Ops: make(map[string]int), Samples: make(map[string]int), Metrics: make(map[string]metricValue),
	}
	// A failed op is one that got no verified answer. The run is incorrect
	// when a 200 answer, or the end state, fails verification; a refusal or a
	// timeout is a failure but not a wrong output.
	r.Correct = oc.verifyErr == nil
	for _, ph := range [][]sample{oc.baseline.samples, oc.timed.samples, oc.tail.samples, oc.post.samples, oc.single.samples} {
		r.Attempted += len(ph)
		for i := range ph {
			r.Correct = r.Correct && !ph[i].wrong
		}
		for _, f := range failures(ph) {
			r.Failed++
			if len(r.Errors) < 5 {
				r.Errors = append(r.Errors, f)
			}
		}
	}
	// The end-state check counts as one more op.
	r.Attempted++
	if oc.verifyErr != nil {
		r.Failed++
		r.Errors = append(r.Errors, "end state: "+oc.verifyErr.Error())
	}

	timed := oc.timed.samples
	// query_* is taken over the one-shot queries. A subscription move is a
	// read too, but it costs a hundredth of a query when its safe region
	// holds and a fifth when not: one percentile over all three modes falls
	// between them and jumps with the hit ratio. Moves count in throughput
	// and have their own per-layer metrics.
	isQuery := func(s *sample) bool { return s.op.kind == opKNN || s.op.kind == opQuery }
	isUpdate := func(s *sample) bool { return !s.op.kind.isRead() }
	reads := latenciesMS(timed, isQuery)
	updates := latenciesMS(timed, isUpdate)
	if !cfg.workload.updates {
		updates = latenciesMS(oc.tail.samples, isUpdate)
	}
	var (
		pages, engine int
		overhead      []float64
		distinct      = make(map[queryKey]bool) // queries already counted in pages
	)
	for i := range timed {
		s := &timed[i]
		r.Ops[s.op.kind.String()]++
		if !s.ok || !s.op.kind.isRead() {
			continue
		}
		// Pages are counted once per distinct query: a repeat served from
		// the cache accesses none, and weighting by popularity would make
		// the count follow whichever hot point the seed ranks first.
		if isQuery(s) && !distinct[keyOf(s.op)] {
			distinct[keyOf(s.op)] = true
			pages += int(s.pages)
		}
		if s.hit {
			overhead = append(overhead, float64(s.rt)/1e3)
		} else {
			engine++
			overhead = append(overhead, float64(s.rt)/1e3-float64(s.cpuUs))
		}
	}
	r.Samples["query"], r.Samples["update"] = len(reads), len(updates)

	set := func(name string, v float64) {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				if d.name == name {
					r.Metrics[name] = metricValue{v, d.unit}
					return
				}
			}
		}
		panic("bench: metric " + strconv.Quote(name) + " is not declared")
	}

	set("setup_s", median(oc.setupS))
	set("throughput_ops_s", float64(okCount(timed))/oc.timed.wallS)
	set("query_p50_ms", quantile(reads, 0.5))
	set("query_p95_ms", quantile(reads, 0.95))
	set("pages_per_query", per(float64(pages), len(distinct)))
	set("server_rss_mb", oc.rssMB)

	d := oc.delta
	// Engine work is divided by the reads the engine answered (not a cache
	// or safe-region hit), so that per-query numbers compare across
	// deployments: in the fleet one client query is several shard-side ones.
	perEngine := func(key string) float64 { return per(d[key], engine) }
	set("server.cache_hit_ratio", ratio(d["surfknn_server.cache.hits"], d["surfknn_server.cache.misses"]))
	set("server.cache_evictions", d["surfknn_server.cache.evictions"])
	set("server.rejected", d["surfknn_server.requests.rejected"])
	set("server.overhead_p50_us", median(overhead))
	set("core.engine_cpu_ms", perEngine("surfknn.queries.latency_us.sum_us")/1e3)
	set("core.rank_c1_ms", perEngine("surfknn.phases.rank-c1.sum_us")/1e3)
	set("core.rank_c2_ms", perEngine("surfknn.phases.rank-c2.sum_us")/1e3)
	set("core.knn2d_us", perEngine("surfknn.phases.knn2d.sum_us"))
	set("core.range2d_us", perEngine("surfknn.phases.range2d.sum_us"))
	set("core.iterations_per_query", perEngine("surfknn.work.iterations"))
	set("core.upper_bounds_per_query", perEngine("surfknn.work.upper_bounds"))
	set("core.lower_bounds_per_query", perEngine("surfknn.work.lower_bounds"))
	set("core.build_s", oc.dep.buildS)
	set("core.snapshot_load_s", oc.dep.loadS)
	set("core.snapshot_mb", oc.dep.snapshotMB)
	set("storage.pool_hit_ratio", ratio(d["surfknn.pool.hits"], d["surfknn.pool.misses"]))
	set("storage.misses_per_query", perEngine("surfknn.pool.misses"))
	set("storage.evictions_per_query", perEngine("surfknn.pool.evictions"))
	set("index.rtree_visits_per_query", perEngine("surfknn.work.rtree_visits"))
	set("pathnet.relaxations_per_query", perEngine("surfknn.work.dijkstra_relaxations"))
	set("objstore.updates_applied", d["surfknn.objects.updates_applied"])
	set("objstore.epochs_created", d["surfknn.objects.epochs_created"])
	set("objstore.epochs_reclaimed", d["surfknn.objects.epochs_reclaimed"])
	// Update latency is sub-millisecond, nearly all of it loopback and
	// goroutine wake-up, and swings 15–35 % from run to run on an idle and
	// on a busy server alike: too unsteady to carry a regression bound, so
	// it is reported here and not end to end.
	set("objstore.update_p50_ms", quantile(updates, 0.5))
	set("objstore.update_p95_ms", quantile(updates, 0.95))
	set("continuous.region_hit_ratio", ratio(d["surfknn_continuous.moves.region_hits"], d["surfknn_continuous.moves.region_misses"]))
	set("continuous.invalidations", d["surfknn_continuous.invalidation.invalidated"])
	set("continuous.revalidations", d["surfknn_continuous.invalidation.revalidated"])
	moveHit := latenciesMS(timed, func(s *sample) bool { return s.op.kind == opMove && s.hit })
	moveMiss := latenciesMS(timed, func(s *sample) bool { return s.op.kind == opMove && !s.hit })
	r.Samples["move_hit"], r.Samples["move_miss"] = len(moveHit), len(moveMiss)
	set("continuous.move_hit_us", quantile(moveHit, 0.5)*1e3)
	set("continuous.move_miss_ms", quantile(moveMiss, 0.5))
	set("shard.calls_per_query", per(d["surfknn_coord.fanout.shard_calls"], len(reads)))
	set("shard.pruned_per_query", per(d["surfknn_coord.fanout.pruned_shards"], len(reads)))
	set("shard.errors", d["surfknn_coord.fanout.shard_errors"])
	set("shard.coord_mean_ms", per(d["surfknn_coord.requests.latency_us.sum_us"], int(d["surfknn_coord.requests.latency_us.count"]))/1e3)
	set("loadgen.cpu_s", oc.cpuS)

	// Traced run only: the distribution tax on identical ops, the tracing
	// overhead, and the layer probes.
	var tax, overheadRatio float64
	if n := len(oc.single.samples); n > 0 {
		// The single server ran the window's first n ops: compare those.
		first := oc.baseline.next
		fleet := latenciesMS(timed, func(s *sample) bool { return s.idx < first+n })
		tax = quantile(fleet, 0.5) - quantile(latenciesMS(oc.single.samples, isQuery), 0.5)
	}
	if len(oc.baseline.samples) > 0 {
		base := float64(okCount(oc.baseline.samples)) / oc.baseline.wallS
		overheadRatio = float64(okCount(timed)) / oc.timed.wallS / base
	}
	set("shard.fleet_tax_ms", tax)
	set("trace.overhead_ratio", overheadRatio)
	for name, v := range oc.probes {
		set(name, v)
	}
	return r
}

// maxTracedOps bounds the span trees written to a trace file; a cached
// workload executes a hundred thousand ops, and a reader needs a sample.
const maxTracedOps = 2000

// buildSpans turns the timed window's client-side timings and the traced
// in-process replays into span trees.
func buildSpans(log *spanLog, oc *outcome, epoch time.Time) {
	name := oc.cfg.workload.name
	began := int64(oc.timed.began.Sub(epoch))
	for i := range oc.timed.samples {
		if i >= maxTracedOps {
			break
		}
		s := &oc.timed.samples[i]
		req := fmt.Sprintf("%s-%d", name, s.idx)
		t := began + s.wall
		root := log.add(0, req, "op."+s.op.kind.String(), t, t+s.latency()+s.ver)
		log.add(root, req, "client.encode", t, t+s.enc)
		t += s.enc
		rt := log.add(root, req, "http.roundtrip", t, t+s.rt)
		if s.ok && !s.hit && s.cpuUs > 0 {
			// The server reports how long the engine ran, not when: centre
			// it in the roundtrip. What is left is the serving layer's.
			cpu := min(s.cpuUs*1e3, s.rt)
			log.add(rt, req, "engine", t+(s.rt-cpu)/2, t+(s.rt-cpu)/2+cpu)
		}
		t += s.rt
		log.add(root, req, "client.decode", t, t+s.dec)
		t += s.dec
		log.add(root, req, "verify", t, t+s.ver)
	}
	for j, r := range oc.replays {
		if r.trace == nil {
			continue
		}
		req := fmt.Sprintf("probe.core-%d", j)
		root := log.add(0, req, "probe.core", r.start, r.end)
		call := log.add(root, req, "call", r.start, r.end)
		// The engine's phase trace is flat, in start order; a span lies
		// inside the latest earlier span that has not ended before it.
		type open struct {
			id  int
			end int64
		}
		stack := []open{{call, r.end}}
		for _, sp := range r.trace.Spans {
			start, end := r.start+int64(sp.Start), r.start+int64(sp.Start+sp.Dur)
			for len(stack) > 1 && start >= stack[len(stack)-1].end {
				stack = stack[:len(stack)-1]
			}
			id := log.add(stack[len(stack)-1].id, req, sp.Name, start, end)
			stack = append(stack, open{id, end})
		}
	}
}
