package experiments

import (
	"context"
	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/stats"
)

// Ablation measures the design choices DESIGN.md calls out, at one fixed
// setting (BH, o = 4, k = 10, schedule s = 1): integrated I/O regions and
// dummy lower bounds, each toggled individually against the all-defaults
// baseline. Series report total time, CPU time and pages per variant.
func Ablation(p Params) (Figure, error) {
	p = p.WithDefaults()
	db, qs, err := p.buildDB(dem.BH, p.Density)
	if err != nil {
		return Figure{}, err
	}
	k := p.K
	if k > len(db.Objects()) {
		k = len(db.Objects())
	}
	variants := []struct {
		name string
		opt  core.Options
	}{
		{"baseline", core.Options{}},
		{"no I/O integration", core.Options{DisableIOIntegration: true}},
		{"no dummy lb", core.Options{DisableDummyLB: true}},
	}
	total := stats.Series{Label: "total ms"}
	cpu := stats.Series{Label: "cpu ms"}
	pages := stats.Series{Label: "pages"}
	lbs := stats.Series{Label: "lb calcs"}
	sess := db.NewSession()
	for vi, v := range variants {
		var agg stats.Metrics
		for _, q := range qs {
			r, err := sess.MR3Ctx(context.Background(), q, k, core.S1, v.opt)
			if err != nil {
				return Figure{}, err
			}
			agg.Add(r.Metrics())
		}
		agg.Scale(len(qs))
		x := float64(vi)
		total.Add(x, agg.Elapsed.Seconds()*1000)
		cpu.Add(x, agg.CPU.Seconds()*1000)
		pages.Add(x, float64(agg.Pages))
		lbs.Add(x, float64(agg.LowerBounds))
		p.Logf("ablation %-18s %s", v.name, agg)
	}
	return Figure{
		ID:     "ablation",
		Title:  "design-choice ablations (BH, o=4, k=10, s=1; x: 0=baseline, 1=no I/O integration, 2=no dummy lb)",
		XLabel: "variant",
		Series: []stats.Series{total, cpu, pages, lbs},
	}, nil
}
