package core

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/workload"
)

// TestShippedCandidateSets checks the completeness rule behind
// MR3ShippedCtx on its candidate sets, not only its answers: the objects
// are split at the terrain's mid line into this database's partition and
// another tile's, which is shipped the way a coordinator ships it — its k
// nearest by planar distance, with their completeness radius. A call that
// settles must have ranked exactly the unsharded C2; one that does not
// must, resumed with the other tile's objects within the radius. Answers
// must match the unsharded MR3Ctx bit for bit, and both paths must run.
func TestShippedCandidateSets(t *testing.T) {
	full := buildDB(t, dem.BH, 16, 60, 31)
	ext := full.Mesh.Extent()
	mid := (ext.MinX + ext.MaxX) / 2
	var local, foreign []workload.Object
	for _, o := range full.Objects() {
		if o.Point.Pos.X < mid {
			local = append(local, o)
		} else {
			foreign = append(foreign, o)
		}
	}
	tile, err := BuildTerrainDB(full.Mesh, Config{})
	if err != nil {
		t.Fatal(err)
	}
	tile.SetObjects(local)

	qs := queryPoints(t, full, 12, 33)
	for i := 0; i < 8; i++ { // on and beside the cut, on the local side
		p := geom.Vec2{X: mid - float64(i)*3 - 1e-9, Y: ext.MinY + (float64(i)+0.5)*ext.Height()/8}
		q, err := full.SurfacePointAt(p)
		if err != nil {
			t.Fatal(err)
		}
		qs = append(qs, q)
	}
	ids := func(objs []workload.Object) []int64 {
		out := make([]int64, len(objs))
		for i, o := range objs {
			out[i] = o.ID
		}
		return out
	}
	unsharded, sharded := full.NewSession(), tile.NewSession()
	settled, resumed := 0, 0
	for qi, q := range qs {
		for _, k := range []int{1, 3, 10, len(foreign) + 2} {
			want, err := unsharded.MR3Ctx(bg, q, k, S2, Options{})
			if err != nil {
				t.Fatal(err)
			}
			wantC2 := ids(unsharded.objs)

			near := slices.Clone(foreign)
			slices.SortFunc(near, func(a, b workload.Object) int {
				if c := cmp.Compare(a.Point.XY().Dist(q.XY()), b.Point.XY().Dist(q.XY())); c != 0 {
					return c
				}
				return cmp.Compare(a.ID, b.ID)
			})
			ship := &Shipped{Objs: near, Complete: math.Inf(1)}
			if len(near) >= k {
				ship.Objs = near[:k]
				ship.Complete = near[k-1].Point.XY().Dist(q.XY())
			}
			got, radius, ok, err := sharded.MR3ShippedCtx(bg, q, k, S2, Options{}, ship)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				settled++
			} else {
				resumed++
				var within []workload.Object
				for _, o := range foreign {
					if o.Point.XY().Dist(q.XY()) <= radius {
						within = append(within, o)
					}
				}
				got, _, ok, err = sharded.MR3ShippedCtx(bg, q, k, S2, Options{}, &Shipped{Objs: within, Resume: true, Radius: radius})
				if err != nil || !ok {
					t.Fatalf("q %d k %d: resumed call settled %v, err %v", qi, k, ok, err)
				}
			}
			if gotC2 := ids(sharded.objs); !slices.Equal(gotC2, wantC2) {
				t.Fatalf("q %d k %d (settled in one call %v): C2 %v, unsharded %v", qi, k, ok, gotC2, wantC2)
			}
			sameNeighbors(t, qi, k, got.Neighbors, want.Neighbors)
		}
	}
	if settled == 0 || resumed == 0 {
		t.Fatalf("%d calls settled, %d resumed: want both paths", settled, resumed)
	}
	t.Logf("%d settled, %d resumed", settled, resumed)
}

func sameNeighbors(t *testing.T, qi, k int, got, want []Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("q %d k %d: %d neighbours, unsharded %d", qi, k, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Object.ID != w.Object.ID || math.Float64bits(g.LB) != math.Float64bits(w.LB) ||
			math.Float64bits(g.UB) != math.Float64bits(w.UB) {
			t.Fatalf("q %d k %d neighbour %d: (%d, [%v, %v]), unsharded (%d, [%v, %v])",
				qi, k, i, g.Object.ID, g.LB, g.UB, w.Object.ID, w.LB, w.UB)
		}
	}
}
