// Command bench is this repository's benchmark: it builds the real skgen,
// skserve and skcoord, generates a workload's inputs from a seed, starts the
// servers as child processes on loopback, drives them with two closed-loop
// keep-alive clients, verifies the answers, and prints every metric by name
// with its unit. BENCHMARK.json at the repo root declares the workloads,
// the metrics and their regression bounds; README.md in this directory says
// what each is for.
//
//	go run ./bench -workload knn_uniform -seed 1 -seconds 18 -trace 0
//	go run ./bench -seed 1 -runs 5 -out bench/out/a.json     # all workloads
//	go run ./bench -compare bench/out/a.json bench/out/b.json
//
// Run it from the repo root. With -workload, the last line of standard
// output is the result as one JSON object.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all, one after another)")
		seed     = flag.Int64("seed", 1, "seed of the generated inputs")
		secs     = flag.Float64("seconds", 18, "length of the timed window")
		trace    = flag.Int("trace", 0, "1: record spans and run the layer probes, report the per-layer metrics")
		runs     = flag.Int("runs", 1, "repeat each workload this many times, seeds seed, seed+1, ...")
		out      = flag.String("out", "", "append the runs to this result file")
		compare  = flag.Bool("compare", false, "compare two result files (the two arguments) against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *secs <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds and -runs must be positive, -trace 0 or 1"))
	}
	if _, err := os.Stat("go.mod"); err != nil {
		fatal(fmt.Errorf("run from the repo root: %w", err))
	}
	defs := workloads
	if *workload != "" {
		w, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		defs = []workloadDef{w}
	}

	// SIGINT/SIGTERM cancel the run; runWorkload's deferred teardown then
	// stops every child and waits for it.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	bin, buildT, err := buildBinaries(ctx, ".")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# built skgen, skserve, skcoord in %.1fs (not part of setup_s)\n", buildT.Seconds())

	var last *runResult
	correct := true
	for r := 0; r < *runs; r++ {
		for _, w := range defs {
			cfg := runConfig{root: ".", bin: bin, sc: fullScale, workload: w,
				seed: *seed + int64(r), seconds: *secs, trace: *trace == 1}
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", w.name, err))
			}
			printResult(res)
			if *out != "" {
				if err := appendResult(*out, res); err != nil {
					fatal(err)
				}
			}
			last = res
			correct = correct && res.Correct
		}
	}
	if *workload != "" {
		line, err := contractLine(last)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
	}
	if !correct {
		// Wrong answers are reported above, but not as success.
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// printResult prints the run for a reader: every metric by name with its
// unit, and what the percentiles were taken over.
func printResult(r *runResult) {
	fmt.Printf("\n== %s  seed %d  %gs  trace %t ==\n", r.Workload, r.Seed, r.Seconds, r.Trace)
	kinds := make([]string, 0, len(r.Ops))
	for k, n := range r.Ops {
		kinds = append(kinds, fmt.Sprintf("%s %d", k, n))
	}
	sort.Strings(kinds)
	fmt.Printf("ops: %s; attempted %d, failed %d, correct %t\n", strings.Join(kinds, ", "), r.Attempted, r.Failed, r.Correct)
	fmt.Printf("samples: query %d, update %d, move hit %d / miss %d\n",
		r.Samples["query"], r.Samples["update"], r.Samples["move_hit"], r.Samples["move_miss"])
	for _, e := range r.Errors {
		fmt.Printf("failed: %s\n", e)
	}
	defs := endToEnd
	if r.Trace {
		defs = append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	for _, d := range defs {
		fmt.Printf("%-34s %14.4f %s\n", d.name, r.Metrics[d.name].Value, d.unit)
	}
}

// contractLine renders the result as the one JSON object the benchmark
// driver reads from the last line of standard output: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
func contractLine(r *runResult) ([]byte, error) {
	line := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]metricValue)}
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		line.Metrics[d.name] = r.Metrics[d.name]
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, fmt.Errorf("encoding result: %w", err)
	}
	return b, nil
}

// resultFile is a set of runs with where they came from.
type resultFile struct {
	Provenance provenance  `json:"provenance"`
	Runs       []runResult `json:"runs"`
}

// provenance records what produced a result file.
type provenance struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Clients    int    `json:"clients"`
}

func currentProvenance() provenance {
	sha := "unknown" // a checkout without .git
	if b, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		sha = strings.TrimSpace(string(b))
	}
	return provenance{GitSHA: sha, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), Clients: clients}
}

func readResults(path string) (resultFile, error) {
	var f resultFile
	b, err := os.ReadFile(path)
	if err != nil {
		return f, fmt.Errorf("reading results: %w", err)
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return f, fmt.Errorf("decoding %s: %w", path, err)
	}
	return f, nil
}

// appendResult adds the run to the result file at path, creating it with
// this process's provenance.
func appendResult(path string, r *runResult) error {
	f := resultFile{Provenance: currentProvenance()}
	if _, err := os.Stat(path); err == nil {
		if f, err = readResults(path); err != nil {
			return err
		}
	}
	f.Runs = append(f.Runs, *r)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("encoding results: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}
