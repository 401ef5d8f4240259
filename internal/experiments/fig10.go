package experiments

import (
	"context"
	"fmt"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/mesh"
	"surfknn/internal/stats"
)

// algoRun measures one algorithm at one parameter point, averaged over the
// query batch.
type algoRun struct {
	label string
	run   func(q int, k int) (stats.Metrics, error)
}

// Fig10 reproduces Figure 10: total time, CPU time and pages accessed as k
// grows from 3 to 30 (o = 4), for MR3 with s = 1, 2, 3 and the EA
// benchmark, on both terrains: (a–c) BH, (d–f) EP.
func Fig10(p Params) ([]Figure, error) {
	p = p.WithDefaults()
	var figs []Figure
	for _, preset := range []dem.Preset{dem.BH, dem.EP} {
		db, qs, err := p.buildDB(preset, p.Density)
		if err != nil {
			return nil, err
		}
		algos := mrAndEA(db, qs)
		total := make([]stats.Series, len(algos))
		cpu := make([]stats.Series, len(algos))
		pages := make([]stats.Series, len(algos))
		for ai, a := range algos {
			total[ai].Label = a.label
			cpu[ai].Label = a.label
			pages[ai].Label = a.label
		}
		for _, k := range kLadder(len(db.Objects())) {
			for ai, a := range algos {
				var agg stats.Metrics
				for qi := range qs {
					m, err := a.run(qi, k)
					if err != nil {
						return nil, fmt.Errorf("fig10 %s %s k=%d: %w", preset.Name, a.label, k, err)
					}
					agg.Add(m)
				}
				agg.Scale(len(qs))
				total[ai].Add(float64(k), agg.Elapsed.Seconds()*1000)
				cpu[ai].Add(float64(k), agg.CPU.Seconds()*1000)
				pages[ai].Add(float64(k), float64(agg.Pages))
				p.Logf("fig10 %s %s k=%d %s", preset.Name, a.label, k, agg)
			}
		}
		suffix := " (" + preset.Name + ", o=4)"
		figs = append(figs,
			Figure{ID: "fig10-" + preset.Name + "-total", Title: "total time ms vs k" + suffix, XLabel: "k", Series: total},
			Figure{ID: "fig10-" + preset.Name + "-cpu", Title: "CPU time ms vs k" + suffix, XLabel: "k", Series: cpu},
			Figure{ID: "fig10-" + preset.Name + "-pages", Title: "pages accessed vs k" + suffix, XLabel: "k", Series: pages},
		)
	}
	return figs, nil
}

// mrAndEA builds the four benchmarked algorithms over a shared query batch.
// The whole batch runs through one Session: the harness is sequential, and
// per-query accounting makes a reused session report the same page counts
// as a fresh session per query (the paper's numbers stay bit-identical).
func mrAndEA(db *core.TerrainDB, queries []mesh.SurfacePoint) []algoRun {
	sess := db.NewSession()
	mk := func(s core.Schedule) func(int, int) (stats.Metrics, error) {
		return func(qi, k int) (stats.Metrics, error) {
			r, err := sess.MR3Ctx(context.Background(), queries[qi], k, s, core.Options{})
			return r.Metrics(), err
		}
	}
	return []algoRun{
		{"MR3 s=1", mk(core.S1)},
		{"MR3 s=2", mk(core.S2)},
		{"MR3 s=3", mk(core.S3)},
		{"EA", func(qi, k int) (stats.Metrics, error) {
			r, err := sess.EACtx(context.Background(), queries[qi], k)
			return r.Metrics(), err
		}},
	}
}
