package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all five workloads at toy scale, untraced and traced, and
// holds the benchmark to its contract: every workload and metric named in
// BENCHMARK.json is emitted exactly once with its unit, nothing fails, and
// no child process or run directory survives.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and starts servers")
	}
	const root = ".."
	spec, err := readSpec(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	checkSpec(t, spec)

	ctx := context.Background()
	bin, _, err := buildBinaries(ctx, root)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{root: root, bin: bin, sc: toyScale, workload: w, seed: 7, seconds: 0.4, trace: traced}
			res, err := runWorkload(ctx, cfg)
			if err != nil {
				t.Fatalf("%s (trace %t): %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s (trace %t): attempted %d, failed %d, correct %t: %v",
					w.name, traced, res.Attempted, res.Failed, res.Correct, res.Errors)
			}
			checkLine(t, w.name, res, spec)
			if traced {
				checkTrace(t, filepath.Join(root, outDir, "trace_"+w.name+".json"))
			}
		}
	}

	if left, _ := filepath.Glob(filepath.Join(root, outDir, "run-*")); len(left) > 0 {
		t.Errorf("run directories survive: %v", left)
	}
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range procs {
		// A process may exit between the glob and the read.
		if b, err := os.ReadFile(p); err == nil && bytes.HasPrefix(b, []byte(bin+string(os.PathSeparator))) {
			t.Errorf("child process survives: %s", strings.ReplaceAll(string(b), "\x00", " "))
		}
	}
}

// checkSpec holds BENCHMARK.json to the program's own vocabulary.
func checkSpec(t *testing.T, spec benchmarkSpec) {
	t.Helper()
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q (why %q), the program %q", i, w.Name, w.Why, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.defs) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", c.kind, len(c.spec), len(c.defs))
		}
		for i, m := range c.spec {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit || !nameRE.MatchString(m.Name) {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					c.kind, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
		}
	}
}

// checkLine parses the result line as the driver would and compares its
// metric set with BENCHMARK.json's.
func checkLine(t *testing.T, workload string, res *runResult, spec benchmarkSpec) {
	t.Helper()
	b, err := contractLine(res)
	if err != nil {
		t.Fatal(err)
	}
	var line struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int                       `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("%s: result line: %v", workload, err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil {
		t.Errorf("%s: result line lacks a key: %s", workload, b)
	}
	want := spec.EndToEnd
	if res.Trace {
		want = spec.PerLayer
	}
	if len(line.Metrics) != len(want) {
		t.Errorf("%s (trace %t): %d metrics on the line, BENCHMARK.json names %d", workload, res.Trace, len(line.Metrics), len(want))
	}
	for _, m := range want {
		var v metricValue
		raw, ok := line.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
			continue
		}
		if err := json.Unmarshal(raw, &v); err != nil || v.Unit != m.Unit {
			t.Errorf("%s: metric %s = %s, want unit %s", workload, m.Name, raw, m.Unit)
		}
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || (!res.Trace && v.Value <= 0) {
			t.Errorf("%s: metric %s = %v", workload, m.Name, v.Value)
		}
	}
}

// checkTrace reads a trace file back and checks span arithmetic on a real
// traced op: the self times of the op's subtree add up to the op's duration.
func checkTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(b, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	var ops, probes int
	for _, s := range tf.Spans {
		switch {
		case s.Parent == 0 && strings.HasPrefix(s.Name, "op."):
			if ops++; ops > 20 {
				continue
			}
			dur, sum := s.End-s.Start, subtreeSelf(tf.Spans, s.ID)
			if diff := math.Abs(float64(sum - dur)); diff > 0.01*float64(dur) {
				t.Errorf("%s: %s %s lasts %d ns, its subtree's self times sum to %d", path, s.Name, s.Req, dur, sum)
			}
		case s.Parent == 0 && strings.HasPrefix(s.Name, "probe."):
			probes++
		}
	}
	if ops == 0 || probes == 0 {
		t.Errorf("%s: %d op trees, %d probe trees", path, ops, probes)
	}
}
