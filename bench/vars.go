package main

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
)

// vars is a flattened /debug/vars reading: dotted path → number, restricted
// to the surfknn* metric groups. A histogram contributes "<path>.count" and
// "<path>.sum_us" (count × mean), so that readings add across processes and
// subtract across time.
type vars map[string]float64

// scrapeVars reads and flattens the metric groups of every process, summing
// them: in a fleet the engine runs on the shards, and a query's work is the
// fleet's work.
func scrapeVars(ctx context.Context, procs []*proc) (vars, error) {
	out := make(vars)
	for _, p := range procs {
		var raw map[string]json.RawMessage
		if err := getJSON(ctx, "http://"+p.addr+"/debug/vars", &raw); err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		for group, body := range raw {
			if !strings.HasPrefix(group, "surfknn") {
				continue
			}
			var v any
			if err := json.Unmarshal(body, &v); err != nil {
				return nil, fmt.Errorf("decoding %s group %s: %w", p.name, group, err)
			}
			flatten(group, v, out)
		}
	}
	return out, nil
}

func flatten(path string, v any, out vars) {
	switch t := v.(type) {
	case float64:
		out[path] += t
	case map[string]any:
		if count, ok := t["count"].(float64); ok {
			// A histogram snapshot: keep what adds and subtracts.
			out[path+".count"] += count
			if mean, ok := t["mean_us"].(float64); ok {
				out[path+".sum_us"] += count * mean
			}
			return
		}
		for k, c := range t {
			flatten(path+"."+k, c, out)
		}
	}
}

// sub returns after − before, key by key.
func (after vars) sub(before vars) vars {
	d := make(vars, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// ratio is a/(a+b), 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if a+b <= 0 {
		return 0
	}
	return a / (a + b)
}

// per is a/n, 0 when n is 0.
func per(a float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return a / float64(n)
}
