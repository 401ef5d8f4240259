package core

import (
	"math"
	"testing"

	"surfknn/internal/dem"
)

// The quiesced-store golden test: with zero pending updates, the versioned
// object store must be bit-identical to the static pre-objstore path. The
// constants below were captured on the last static-Dxy revision (same
// build: BH preset, 16-grid, 60 objects, seeds 2006/77) — result IDs, the
// exact float bits of every bound, and Cost.Pages(). Any drift here means
// the epoch view changed traversal order, visit counting or candidate
// resolution, and breaks reproducibility of the paper's figures.
//
// One deliberate re-capture: MR3's page count dropped 422 → 378 when
// candidate enumeration switched to canonical (planar distance, id) order
// for sharded equivalence — processing near candidates first tightens the
// k-th bound earlier and prunes terrain fetches. Result bits were
// unchanged.
//
// A second deliberate re-capture: each DMTM upper bound became the level
// network's unrestricted distance, read off the per-level shared search,
// in place of the paper's search restricted to the refined region
// (Fig. 6(b)). A bound is never looser than before, so ranges and the I/O
// groups built from their ellipses move: MR3 378 → 298 pages and Range
// 333 → 406 (earlier, tighter bounds leave more, smaller candidate ellipses
// that integrate into more groups). The answer sets are unchanged; in the
// range answer objects 47 and 37 are now accepted on open ranges below the
// radius, so their order follows their upper bounds.

type goldenRow struct {
	id     int64
	lb, ub uint64 // math.Float64bits of the bounds
}

func checkGolden(t *testing.T, algo string, ns []Neighbor, pages int64, wantPages int64, want []goldenRow) {
	t.Helper()
	if pages != wantPages {
		t.Errorf("%s: Cost.Pages() = %d, want %d", algo, pages, wantPages)
	}
	if len(ns) != len(want) {
		t.Fatalf("%s: %d neighbours, want %d", algo, len(ns), len(want))
	}
	for i, w := range want {
		n := ns[i]
		if n.Object.ID != w.id {
			t.Errorf("%s[%d]: ID = %d, want %d", algo, i, n.Object.ID, w.id)
		}
		if got := math.Float64bits(n.LB); got != w.lb {
			t.Errorf("%s[%d]: LB bits = %#x, want %#x", algo, i, got, w.lb)
		}
		if got := math.Float64bits(n.UB); got != w.ub {
			t.Errorf("%s[%d]: UB bits = %#x, want %#x", algo, i, got, w.ub)
		}
	}
}

func TestGoldenQuiescedMatchesStaticPath(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 60, 2006)
	q := queryPoints(t, db, 1, 77)[0]
	if got, want := math.Float64bits(q.Pos.X), uint64(0x406163612e8a79fc); got != want {
		t.Fatalf("query X bits = %#x, want %#x (fixture drifted; golden values invalid)", got, want)
	}
	if got, want := math.Float64bits(q.Pos.Y), uint64(0x405fd134318b6b5b); got != want {
		t.Fatalf("query Y bits = %#x, want %#x (fixture drifted; golden values invalid)", got, want)
	}

	mr3, err := db.NewSession().MR3Ctx(bg, q, 5, S2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "MR3", mr3.Neighbors, mr3.Cost.Pages(), 298, []goldenRow{
		{20, 0x4028e4b039f595e0, 0x40335eb3937ffdba},
		{53, 0x403424139c8027f6, 0x403842bd91238e67},
		{47, 0x4042a6dd4f369057, 0x4042a6dd4f369057},
		{37, 0x40432d6bfc49d156, 0x40432d6bfc49d156},
		{15, 0x4043b3b92d299617, 0x4043b3b92d299617},
	})

	ea, err := db.NewSession().EACtx(bg, q, 5)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "EA", ea.Neighbors, ea.Cost.Pages(), 477, []goldenRow{
		{20, 0x40335eb3937ffdba, 0x40335eb3937ffdba},
		{53, 0x403842bd91238e67, 0x403842bd91238e67},
		{47, 0x4042a6dd4f369057, 0x4042a6dd4f369057},
		{37, 0x40432d6bfc49d156, 0x40432d6bfc49d156},
		{15, 0x4043b3b92d299617, 0x4043b3b92d299617},
	})

	radius := db.Mesh.Extent().Width() / 4
	if got, want := math.Float64bits(radius), uint64(0x4044000000000000); got != want {
		t.Fatalf("radius bits = %#x, want %#x", got, want)
	}
	rng, err := db.NewSession().SurfaceRangeCtx(bg, q, radius, S1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "Range", rng.Neighbors, rng.Cost.Pages(), 406, []goldenRow{
		{20, 0x4028e4b039f595e0, 0x40335eb3937ffdba},
		{53, 0x403424139c8027f6, 0x403842bd91238e67},
		{37, 0x403d45e2dab05ce9, 0x404340c2bb69fc7b},
		{47, 0x403f68fd34c20d72, 0x40438f7bf5f3e5b0},
		{15, 0x4043b3b92d299617, 0x4043b3b92d299617},
	})

	// The epoch stamped on every result is the quiesced store's: 0.
	if mr3.Epoch != 0 || ea.Epoch != 0 || rng.Epoch != 0 {
		t.Errorf("quiesced results carry epochs %d/%d/%d, want 0", mr3.Epoch, ea.Epoch, rng.Epoch)
	}
}
