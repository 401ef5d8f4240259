package experiments

import (
	"strings"
	"testing"
)

// tiny returns parameters small enough for unit tests.
func tiny() Params {
	return Params{Size: 16, CellSize: 100, Queries: 1, Density: 4, K: 3, Seed: 99}
}

func TestFig1(t *testing.T) {
	f, err := Fig1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	verts := f.Series[0]
	// Vertex counts decrease with resolution.
	for i := 1; i < len(verts.Y); i++ {
		if verts.Y[i] > verts.Y[i-1] {
			t.Errorf("vertex counts not decreasing: %v", verts.Y)
		}
	}
	if verts.Y[0] != 17*17 {
		t.Errorf("full-resolution vertices = %v, want 289", verts.Y[0])
	}
	if !strings.Contains(f.String(), "fig1") {
		t.Error("rendering missing figure id")
	}
}

func TestFig7(t *testing.T) {
	p := tiny()
	f, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 3 {
		t.Fatalf("series = %d", len(f.Series))
	}
	ch, ea := f.Series[0], f.Series[1]
	if len(ch.X) < 2 || len(ch.X) != len(ea.X) {
		t.Fatalf("sweep sizes: ch=%d ea=%d", len(ch.X), len(ea.X))
	}
	// Vertex counts ascend.
	for i := 1; i < len(ch.X); i++ {
		if ch.X[i] <= ch.X[i-1] {
			t.Error("vertex counts must ascend")
		}
	}
}

func TestFig8Shape(t *testing.T) {
	f, err := Fig8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	// Series: Euclidean + one per SDN resolution.
	if len(f.Series) != 6 {
		t.Fatalf("series = %d, want 6", len(f.Series))
	}
	for _, s := range f.Series {
		for i, y := range s.Y {
			if y <= 0 || y > 100+1e-9 {
				t.Errorf("%s: accuracy %v out of (0,100] at x=%v", s.Label, y, s.X[i])
			}
		}
		// Accuracy must not decrease with DMTM resolution (ub shrinks).
		for i := 1; i < len(s.Y); i++ {
			if s.Y[i] < s.Y[i-1]-1e-6 {
				t.Errorf("%s: accuracy decreased: %v", s.Label, s.Y)
			}
		}
	}
	euc := f.Series[0]
	full := f.Series[5] // SDN 100%
	last := len(euc.Y) - 1
	// The SDN bound takes the Euclidean floor as a fallback, so it can
	// never be worse; on tiny terrains it may tie.
	if full.Y[last] < euc.Y[last]-1e-9 {
		t.Errorf("SDN 100%% (%v) below Euclidean lb (%v) at full DMTM", full.Y[last], euc.Y[last])
	}
}

func TestRunnerUnknown(t *testing.T) {
	if _, err := Run("nope", tiny()); err == nil {
		t.Error("unknown experiment should error")
	}
}

func TestRunnerFig9Tiny(t *testing.T) {
	p := tiny()
	figs, err := Run("9", p)
	if err != nil {
		t.Fatal(err)
	}
	f := figs[0]
	if len(f.Series) != 2 {
		t.Fatalf("series = %d", len(f.Series))
	}
	off, on := f.Series[0], f.Series[1]
	for i := range on.Y {
		if on.Y[i] > off.Y[i] {
			t.Errorf("k=%v: integration on (%v pages) exceeds off (%v)", on.X[i], on.Y[i], off.Y[i])
		}
	}
}

func TestRatio(t *testing.T) {
	f, err := Ratio(tiny())
	if err != nil {
		t.Fatal(err)
	}
	mean := f.Series[0]
	if len(mean.Y) != 2 {
		t.Fatalf("ratio points = %d", len(mean.Y))
	}
	bh, ep := mean.Y[0], mean.Y[1]
	if bh <= ep {
		t.Errorf("BH overhead (%v%%) should exceed EP (%v%%)", bh, ep)
	}
	if ep < 0 || bh < 0 {
		t.Errorf("overheads must be non-negative: %v %v", bh, ep)
	}
}

func TestFig10Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("driver sweep")
	}
	p := tiny()
	figs, err := Fig10(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 { // total/cpu/pages × BH/EP
		t.Fatalf("figures = %d", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 4 {
			t.Fatalf("%s: %d series", f.ID, len(f.Series))
		}
		for _, s := range f.Series {
			for _, y := range s.Y {
				if y < 0 {
					t.Fatalf("%s %s: negative measurement %v", f.ID, s.Label, y)
				}
			}
		}
	}
}

func TestFig11Tiny(t *testing.T) {
	if testing.Short() {
		t.Skip("driver sweep")
	}
	p := tiny()
	figs, err := Fig11(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 6 {
		t.Fatalf("figures = %d", len(figs))
	}
	// Density axis runs 1..10.
	s := figs[0].Series[0]
	if len(s.X) != 10 || s.X[0] != 1 || s.X[9] != 10 {
		t.Fatalf("density axis = %v", s.X)
	}
}

func TestAblationTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("driver sweep")
	}
	f, err := Ablation(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("series = %d", len(f.Series))
	}
	pages := f.Series[2]
	if len(pages.Y) != 3 {
		t.Fatalf("variants = %d", len(pages.Y))
	}
	// Disabling I/O integration can only increase pages.
	if pages.Y[1] < pages.Y[0] {
		t.Errorf("no-integration pages %v below baseline %v", pages.Y[1], pages.Y[0])
	}
}
