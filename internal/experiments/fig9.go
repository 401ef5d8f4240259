package experiments

import (
	"context"
	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/stats"
)

// Fig9 reproduces Figure 9: pages accessed versus k with the integrated
// I/O region option on and off (BH, o = 4, s = 2, as in §5.4). The paper
// finds the "on" curve growing much more slowly with k.
func Fig9(p Params) (Figure, error) {
	p = p.WithDefaults()
	db, qs, err := p.buildDB(dem.BH, p.Density)
	if err != nil {
		return Figure{}, err
	}
	on := stats.Series{Label: "integration on"}
	off := stats.Series{Label: "integration off"}
	sess := db.NewSession()
	for _, k := range kLadder(len(db.Objects())) {
		var pagesOn, pagesOff int64
		for _, q := range qs {
			r1, err := sess.MR3Ctx(context.Background(), q, k, core.S2, core.Options{})
			if err != nil {
				return Figure{}, err
			}
			pagesOn += r1.Metrics().Pages
			r2, err := sess.MR3Ctx(context.Background(), q, k, core.S2, core.Options{DisableIOIntegration: true})
			if err != nil {
				return Figure{}, err
			}
			pagesOff += r2.Metrics().Pages
		}
		n := int64(len(qs))
		on.Add(float64(k), float64(pagesOn/n))
		off.Add(float64(k), float64(pagesOff/n))
		p.Logf("fig9 k=%d on=%d off=%d", k, pagesOn/n, pagesOff/n)
	}
	return Figure{
		ID:     "fig9",
		Title:  "effect of integrated I/O region (pages accessed, BH, o=4, s=2)",
		XLabel: "k",
		Series: []stats.Series{off, on},
	}, nil
}

// kLadder is the paper's k sweep (3..30 step 3), clamped to the object
// count.
func kLadder(objects int) []int {
	var ks []int
	for k := 3; k <= 30; k += 3 {
		if k <= objects {
			ks = append(ks, k)
		}
	}
	if len(ks) == 0 {
		ks = []int{1}
	}
	return ks
}
