package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"surfknn/internal/core"
	"surfknn/internal/server/api"
	"surfknn/internal/shard"
)

// runConfig is one benchmark run: one workload, one seed.
type runConfig struct {
	root     string // repo root (where go.mod is)
	bin      string // directory of the built skgen, skserve, skcoord
	sc       scale
	workload workloadDef
	seed     int64
	seconds  float64 // length of the timed window
	trace    bool
}

// deployment is one running system under test.
type deployment struct {
	front    *proc   // the process the load generator drives
	procs    []*proc // every server process: metric groups, memory
	snapshot string  // the untiled snapshot, which the benchmark loads too
	// snapshotMB is what the server processes read at start, summed.
	snapshotMB float64
	buildS     float64 // skgen wall
	startS     float64 // first exec → every process healthy
	loadS      float64 // slowest single process, exec → healthy
}

// deploy runs skgen into dir and starts the workload's server processes.
func deploy(ctx context.Context, cfg runConfig, ps *procSet, dir string) (*deployment, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	d := &deployment{snapshot: filepath.Join(dir, "bh.skdb")}
	// The terrain is fixed; skgen places the objects from the terrain seed.
	args := []string{"-preset", "BH", "-size", strconv.Itoa(cfg.sc.size), "-cell", "100", "-seed", "2006",
		"-o", filepath.Join(dir, "bh.sdem"), "-db", d.snapshot, "-db-objects", strconv.Itoa(cfg.sc.objects)}
	if cfg.workload.fleet {
		args = append(args, "-tiles", "2x1")
	}
	t0 := time.Now()
	if out, err := exec.CommandContext(ctx, filepath.Join(cfg.bin, "skgen"), args...).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("skgen: %w\n%s", err, out)
	}
	d.buildS = time.Since(t0).Seconds()

	logPath := func(name string) string {
		return filepath.Join(cfg.root, outDir, cfg.workload.name+"_"+name+".log")
	}
	skserve := filepath.Join(cfg.bin, "skserve")
	t0 = time.Now()
	if !cfg.workload.fleet {
		args := []string{"-snapshot", d.snapshot, "-addr", "127.0.0.1:0"}
		if cfg.workload.smallPool {
			args = append(args, "-pool-pages", strconv.Itoa(cfg.sc.smallPool))
		}
		p, err := ps.start(ctx, skserve, logPath("skserve"), args...)
		if err != nil {
			return nil, err
		}
		d.front, d.procs = p, []*proc{p}
	} else {
		man, err := shard.ReadManifest(filepath.Join(dir, "bh.manifest.json"))
		if err != nil {
			return nil, err
		}
		shards := make([]*proc, len(man.Shards))
		errs := make([]error, len(man.Shards))
		var wg sync.WaitGroup
		for i, s := range man.Shards {
			wg.Add(1)
			go func(i int, id, file string) {
				defer wg.Done()
				shards[i], errs[i] = ps.start(ctx, skserve, logPath("skserve-"+id),
					"-snapshot", filepath.Join(dir, file), "-shard-id", id, "-addr", "127.0.0.1:0")
			}(i, s.ID, s.File)
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return nil, err
		}
		addrs := make([]string, len(shards))
		for i, p := range shards {
			addrs[i] = p.addr
		}
		coord, err := ps.start(ctx, filepath.Join(cfg.bin, "skcoord"), logPath("skcoord"),
			"-manifest", filepath.Join(dir, "bh.manifest.json"), "-addrs", strings.Join(addrs, ","), "-addr", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		d.front, d.procs = coord, append(shards, coord)
	}
	d.startS = time.Since(t0).Seconds()
	for _, p := range d.procs {
		d.loadS = max(d.loadS, p.loadS)
		for i, a := range p.cmd.Args {
			if a == "-snapshot" {
				st, err := os.Stat(p.cmd.Args[i+1])
				if err != nil {
					return nil, fmt.Errorf("sizing snapshot: %w", err)
				}
				d.snapshotMB += float64(st.Size()) / (1 << 20)
			}
		}
	}
	return d, nil
}

// outcome is everything one run measured, before it is boiled down to
// metrics.
type outcome struct {
	cfg       runConfig
	dep       *deployment
	setupS    []float64
	baseline  phaseResult // untraced slice before a traced window
	timed     phaseResult
	tail      phaseResult // update tail of a read-only workload
	post      phaseResult // post-run queries
	single    phaseResult // fleet_knn traced: the first ops again on one skserve
	delta     vars        // /debug/vars across the timed window
	cpuS      float64     // load generator's own user+sys over the timed window
	rssMB     float64     // Σ peak resident set of the server processes
	probes    map[string]float64
	replays   []replayed
	verifyErr error // a whole-run verification failure (epochs, object counts)
}

// cpuSeconds is the process's user+sys CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), nil
}

// runWorkload sets the system up, drives the workload, verifies the answers
// and tears everything down again, on every path.
func runWorkload(ctx context.Context, cfg runConfig) (res *runResult, err error) {
	if err := os.MkdirAll(filepath.Join(cfg.root, outDir), 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", outDir, err)
	}
	runDir, err := os.MkdirTemp(filepath.Join(cfg.root, outDir), "run-")
	if err != nil {
		return nil, fmt.Errorf("creating run directory: %w", err)
	}
	ps := &procSet{}
	defer func() {
		if serr := ps.stopAll(); serr != nil && err == nil {
			res, err = nil, serr
		}
		if rerr := os.RemoveAll(runDir); rerr != nil && err == nil {
			res, err = nil, fmt.Errorf("removing run directory: %w", rerr)
		}
	}()

	began := time.Now()
	clock := func() int64 { return int64(time.Since(began)) }
	oc := &outcome{cfg: cfg}
	wl := cfg.workload

	// Set-up, several times over: skgen, server start until healthy, warm-up.
	// The last one stays up for the run.
	var (
		db          *core.TerrainDB
		warm, timed opList
		tail        opList
		known       map[int64]bool
		drv         *driver
	)
	for i := 0; i < cfg.sc.setups; i++ {
		if err := ps.stopAll(); err != nil {
			return nil, err
		}
		oc.dep, err = deploy(ctx, cfg, ps, filepath.Join(runDir, "setup"+strconv.Itoa(i)))
		if err != nil {
			return nil, err
		}
		if db == nil {
			// The benchmark's own copy of what the servers loaded: it
			// validates generated points, replays answers, feeds the probes.
			if db, err = core.LoadFile(oc.dep.snapshot, core.Config{}); err != nil {
				return nil, fmt.Errorf("loading snapshot in-process: %w", err)
			}
			if warm, timed, err = wl.gen(db, cfg.sc, cfg.seed, cfg.seconds*1.25); err != nil {
				return nil, err
			}
			if !wl.updates {
				if tail, err = tailOps(db, cfg.seed, cfg.sc.tail); err != nil {
					return nil, err
				}
			}
			known = knownIDs(db, &timed, &tail)
		}
		drv = newDriver(oc.dep.front.addr, known)
		w := drv.run(phase{list: &warm, clients: clients})
		if f := failures(w.samples); len(f) > 0 {
			return nil, fmt.Errorf("warm-up failed: %s", f[0])
		}
		oc.setupS = append(oc.setupS, oc.dep.buildS+oc.dep.startS+w.wallS)
	}

	// The timed window. A traced run first measures a quarter-length
	// untraced slice of the same list, for trace.overhead_ratio.
	from := 0
	if cfg.trace {
		oc.baseline = drv.run(phase{list: &timed, limit: seconds(cfg.seconds / 4), clients: clients, every: sampleEvery})
		from = oc.baseline.next
	}
	before, err := scrapeVars(ctx, oc.dep.procs)
	if err != nil {
		return nil, err
	}
	cpu0, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	oc.timed = drv.run(phase{list: &timed, from: from, limit: seconds(cfg.seconds), clients: clients, every: sampleEvery})
	cpu1, err := cpuSeconds()
	if err != nil {
		return nil, err
	}
	after, err := scrapeVars(ctx, oc.dep.procs)
	if err != nil {
		return nil, err
	}
	oc.delta, oc.cpuS = after.sub(before), cpu1-cpu0

	// Read-only workloads: the update tail, in order on one client, so that
	// every delete names an id the stream's earlier insert has made live.
	if !wl.updates {
		oc.tail = drv.run(phase{list: &tail, clients: 1})
		// All timed answers were computed at epoch 0, the snapshot's: replay
		// the kept ones in-process before the store moves on.
		oc.replays = replaySampled(ctx, db, oc.baseline.samples, !wl.fleet, false, clock)
		oc.replays = append(oc.replays, replaySampled(ctx, db, oc.timed.samples, !wl.fleet, cfg.trace, clock)...)
	}

	// Every workload: bring the in-process store to the servers' state and
	// compare fresh queries at that epoch.
	oc.verifyErr = verifyEndState(ctx, db, drv, oc, clock)

	if wl.fleet && cfg.trace {
		if err := fleetTaxRun(ctx, cfg, ps, oc, &timed, from); err != nil {
			return nil, err
		}
	}
	for _, p := range oc.dep.procs {
		mb, err := p.peakRSSMB()
		if err != nil {
			return nil, err
		}
		oc.rssMB += mb
	}
	if err := ps.stopAll(); err != nil {
		return nil, err
	}

	var log spanLog
	if cfg.trace {
		buildSpans(&log, oc, began)
		pr, err := newProber(db, &log, clock, cfg.sc, oc.timed.samples)
		if err != nil {
			return nil, err
		}
		if oc.probes, err = pr.run(); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.root, outDir, "trace_"+wl.name+".json")
		tf := traceFile{Workload: wl.name, Seed: cfg.seed, OpsTotal: len(oc.timed.samples),
			OpsWritten: min(len(oc.timed.samples), maxTracedOps)}
		if err := log.writeFile(path, tf); err != nil {
			return nil, err
		}
	}
	return oc.result(), nil
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// knownIDs collects every object id an answer may legally name: the
// snapshot's objects and everything the op lists upsert.
func knownIDs(db *core.TerrainDB, lists ...*opList) map[int64]bool {
	known := make(map[int64]bool)
	for _, o := range db.Objects() {
		known[o.ID] = true
	}
	for _, l := range lists {
		for i := range l.ops {
			for _, o := range l.ops[i].objs {
				known[*o.ID] = true
			}
		}
	}
	return known
}

// failures lists why ops of a phase failed.
func failures(samples []sample) []string {
	var out []string
	for i := range samples {
		if !samples[i].ok {
			out = append(out, samples[i].op.kind.String()+": "+samples[i].err)
		}
	}
	return out
}

// verifyEndState replays the acknowledged updates in-process in epoch
// order, checks that the servers agree on the resulting epoch and object
// count, then sends post-run queries and compares each answer bit for bit
// with a direct Session call at that epoch.
func verifyEndState(ctx context.Context, db *core.TerrainDB, drv *driver, oc *outcome, clock func() int64) error {
	want, err := applyAcked(db, oc.baseline.samples, oc.timed.samples, oc.tail.samples)
	if err != nil {
		return err
	}
	var h api.Healthz
	if err := getJSON(ctx, "http://"+oc.dep.front.addr+"/v1/healthz", &h); err != nil {
		return err
	}
	if h.Epoch != want || h.Objects != len(db.Objects()) {
		return fmt.Errorf("servers end at epoch %d with %d objects, the acknowledged updates replay to epoch %d with %d",
			h.Epoch, h.Objects, want, len(db.Objects()))
	}
	post := opList{ops: knnOps(db, oc.cfg.seed, postStart, oc.cfg.sc.post)}
	oc.post = drv.run(phase{list: &post, clients: clients, every: 1})
	replaySampled(ctx, db, oc.post.samples, !oc.cfg.workload.fleet, false, clock)
	return nil
}

// fleetTaxRun replays the first ops of the fleet's timed window against one
// skserve on the untiled snapshot, so that shard.fleet_tax_ms compares the
// two deployments on identical ops.
func fleetTaxRun(ctx context.Context, cfg runConfig, ps *procSet, oc *outcome, timed *opList, from int) error {
	p, err := ps.start(ctx, filepath.Join(cfg.bin, "skserve"),
		filepath.Join(cfg.root, outDir, cfg.workload.name+"_skserve-single.log"),
		"-snapshot", oc.dep.snapshot, "-addr", "127.0.0.1:0")
	if err != nil {
		return err
	}
	n := min(fleetTaxOps, len(oc.timed.samples))
	first := opList{ops: timed.ops[from : from+n]}
	oc.single = newDriver(p.addr, nil).run(phase{list: &first, clients: clients})
	return nil
}

// fleetTaxOps is how many ops fleet_knn's traced run repeats on one server.
const fleetTaxOps = 40
