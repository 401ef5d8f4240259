package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkSpec is BENCHMARK.json, the benchmark's contract.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the baseline's median by which the metric may
	// get worse before a change counts as a regression (end-to-end only).
	Bound float64 `json:"bound,omitempty"`
}

func readSpec(path string) (benchmarkSpec, error) {
	var s benchmarkSpec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark spec: %w", err)
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("decoding %s: %w", path, err)
	}
	return s, nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's statistics.quantiles(v,
// n=4) gives them (the rule the benchmark driver applies). Fewer than two
// values have no spread.
func quartileSpread(v []float64) float64 {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := q(2)
	if med <= 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}

// compareFiles prints, for every workload and end-to-end metric, the two
// files' medians over their untraced runs, by how much b is worse than a,
// the bound, and a verdict: ok, worse, or unresolved when either side's
// run-to-run spread exceeds the bound (so the medians cannot settle it). It
// reports whether any row is worse.
func compareFiles(w io.Writer, specPath, aPath, bPath string) (bool, error) {
	spec, err := readSpec(specPath)
	if err != nil {
		return false, err
	}
	a, err := readResults(aPath)
	if err != nil {
		return false, err
	}
	b, err := readResults(bPath)
	if err != nil {
		return false, err
	}
	values := func(f resultFile, workload, metric string) []float64 {
		var v []float64
		for _, r := range f.Runs {
			if r.Workload == workload && !r.Trace {
				v = append(v, r.Metrics[metric].Value)
			}
		}
		return v
	}
	fmt.Fprintf(w, "a: %s (%s, %d runs)\nb: %s (%s, %d runs)\n", aPath, a.Provenance.GitSHA, len(a.Runs), bPath, b.Provenance.GitSHA, len(b.Runs))
	fmt.Fprintf(w, "%-14s %-18s %12s %12s %8s %6s %7s %7s  %s\n",
		"workload", "metric", "a median", "b median", "worse", "bound", "a iqr", "b iqr", "verdict")
	anyWorse := false
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, wl.Name, m.Name), values(b, wl.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				return false, fmt.Errorf("%s %s: a has %d runs, b has %d", wl.Name, m.Name, len(va), len(vb))
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if m.Better == "higher" {
				worse = -worse
			}
			sa, sb := quartileSpread(va), quartileSpread(vb)
			verdict := "ok"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-14s %-18s %12.4f %12.4f %+7.1f%% %5.0f%% %6.1f%% %6.1f%%  %s\n",
				wl.Name, m.Name, ma, mb, 100*worse, 100*m.Bound, 100*sa, 100*sb, verdict)
		}
	}
	return anyWorse, nil
}
