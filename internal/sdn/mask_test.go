package sdn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"surfknn/internal/geom"
)

// refMask is the full-run mask: every entry of the layer's run is written,
// 0 when it is inside the region on the plane axis and, with an envelope,
// touches one of the boxes, +Inf otherwise. It returns the number kept and
// the span (first index, length) from the first kept entry to the last.
func refMask(dist []float64, l *layer, env []geom.MBR, minP, maxP float64) (kept, first, span int) {
	t := l.tab
	for i := range dist {
		dist[i] = math.Inf(1)
		if k := l.lo + i; len(env) == 0 && t.pLo[k] <= maxP && minP <= t.pHi[k] {
			dist[i] = 0
		}
	}
	for _, e := range env {
		eMinF, eMaxF, eMinP, eMaxP := e.MinX, e.MaxX, e.MinY, e.MaxY
		if l.line.Axis == XAxis {
			eMinF, eMaxF, eMinP, eMaxP = eMinP, eMaxP, eMinF, eMaxF
		}
		if e.IsEmpty() || !(eMinP <= t.pMax && t.pMin <= eMaxP) {
			continue
		}
		lo, hi := t.run(l.lo, l.lo+len(dist), eMinF, eMaxF)
		for k := lo; k < hi; k++ {
			if eMinP <= t.pHi[k] && t.pLo[k] <= eMaxP && t.pLo[k] <= maxP && minP <= t.pHi[k] {
				dist[k-l.lo] = 0
			}
		}
	}
	last := -1
	for i, d := range dist {
		if math.IsInf(d, 1) {
			continue
		}
		if kept == 0 {
			first = i
		}
		kept++
		last = i
	}
	return kept, first, last + 1 - first
}

// refLayout redoes collect's layer loop with refMask, into an arena of its
// own, over the ordered lines and the envelope boxes collect left in sc.
func refLayout(ms *MSDN, sc *Scratch, useX bool, region geom.MBR, res float64, narrow bool) (layers []layer, arena []float64, segments int, ok bool) {
	tabs := ms.tables(useX, res)
	lines := ms.YLines
	minF, maxF, minP, maxP := region.MinX, region.MaxX, region.MinY, region.MaxY
	if useX {
		lines = ms.XLines
		minF, maxF, minP, maxP = minP, maxP, minF, maxF
	}
	if len(sc.between) == 0 || region.IsEmpty() {
		return nil, nil, 0, true
	}
	boxes := sc.envBoxes
	if narrow {
		boxes = sc.envNarrow
	}
	for _, li := range sc.between {
		tab := &tabs[li]
		lo, hi := tab.run(0, tab.len(), minF, maxF)
		if lo == hi {
			continue
		}
		l := layer{line: lines[li], tab: tab, lo: lo, hi: hi, base: len(arena)}
		dist := make([]float64, hi-lo)
		kept := len(dist)
		if len(boxes) > 0 || !(minP <= tab.pMin && tab.pMax <= maxP) {
			var first, n int
			kept, first, n = refMask(dist, &l, boxes, minP, maxP)
			if kept == 0 && narrow {
				if wide, _, _ := refMask(dist, &l, sc.envBoxes, minP, maxP); wide > 0 {
					return layers, arena, segments, false
				}
			}
			dist = dist[first : first+n]
			l.lo, l.hi = lo+first, lo+first+n
			l.masked = kept < n
		}
		segments += kept
		if kept == 0 {
			continue
		}
		layers = append(layers, l)
		arena = append(arena, dist...)
	}
	return layers, arena, segments, true
}

// TestMaskMatchesFullRun lays chains out under narrow and wide envelopes —
// the previous ladder level's path, as MR3 thickens it — and without one,
// on BH, EP and flat terrain, and requires collect's layers (line, run,
// arena base, masked flag), kept-entry count, outcome and arena contents to
// equal those the full-run mask gives.
func TestMaskMatchesFullRun(t *testing.T) {
	t.Parallel()
	for _, f := range kernelFixtures() {
		f := f
		t.Run(f.name, func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewSource(41))
			var sc Scratch
			margin := 2 * f.ms.Spacing
			masked := 0
			for trial := 0; trial < 10; trial++ {
				flat := f.name == "flat"
				a, b := randomPoint(rng, f.ext, flat), randomPoint(rng, f.ext, flat)
				regions := []geom.MBR{
					f.ext,
					geom.NewEllipse(a.XY(), b.XY(), a.Dist(b)*(1.3+rng.Float64())).MBR(),
					geom.NewEllipse(a.XY(), b.XY(), a.Dist(b)*1.02).MBR(),
				}
				useX := prefersX(a, b)
				for ri, region := range regions {
					for _, tr := range ladderTransitions {
						prev := append([]Segment(nil), f.ms.LowerBoundScratch(&sc, a, b, regions[ri/2], tr[0], math.Inf(1)).Path...)
						for _, env := range []envelope{{}, {prev, margin, false}, {prev, margin, true}} {
							what := fmt.Sprintf("%s a=%v b=%v region#%d %v->%v envelope %d narrow %v",
								f.name, a, b, ri, tr[0], tr[1], len(env.path), env.narrow)
							segments, ok := f.ms.collect(&sc, useX, a, b, region, tr[1], planeStepFor(tr[1]), env)
							wantLayers, wantArena, wantSegments, wantOK := refLayout(f.ms, &sc, useX, region, tr[1], env.narrow)
							if ok != wantOK || segments != wantSegments {
								t.Fatalf("%s: collect kept %d (ok %v), full-run mask %d (ok %v)", what, segments, ok, wantSegments, wantOK)
							}
							if !ok {
								continue
							}
							if len(sc.layers) != len(wantLayers) {
								t.Fatalf("%s: %d layers, full-run mask %d", what, len(sc.layers), len(wantLayers))
							}
							for i, w := range wantLayers {
								g := sc.layers[i]
								if g.line != w.line || g.tab != w.tab || g.lo != w.lo || g.hi != w.hi || g.base != w.base || g.masked != w.masked {
									t.Fatalf("%s: layer %d run [%d, %d) base %d masked %v, full-run mask [%d, %d) base %d masked %v",
										what, i, g.lo, g.hi, g.base, g.masked, w.lo, w.hi, w.base, w.masked)
								}
								if g.masked && len(env.path) > 0 {
									masked++
								}
							}
							for k, w := range wantArena {
								if math.Float64bits(sc.dist[k]) != math.Float64bits(w) {
									t.Fatalf("%s: arena[%d] = %v, full-run mask %v", what, k, sc.dist[k], w)
								}
							}
						}
					}
				}
			}
			if masked == 0 {
				t.Fatal("no envelope layer kept a masked entry: the span inside the boxes' runs is never exercised")
			}
		})
	}
}
