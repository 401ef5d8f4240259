// Rover mission planning: another §1 application ("rover path planning ...
// a path is constrained to be on or near the surface"). A rover at a lander
// must visit the nearest scientific targets; travel cost is distance along
// the terrain, not through the air. The example ranks targets by surface
// distance with MR3, extracts the actual traverse polyline from the
// pathnet, and reports how badly the straight-line ranking would have
// misordered the visits.
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

func main() {
	log.SetFlags(0)
	grid := dem.Synthesize(dem.BH, 64, 40, 314)
	surface := mesh.FromGrid(grid)
	db, err := core.BuildTerrainDB(surface, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ext := surface.Extent()

	// Scientific targets scattered over the site.
	targets, err := workload.RandomObjects(surface, db.Loc, 30, 99)
	if err != nil {
		log.Fatal(err)
	}
	db.SetObjects(targets)

	lander, err := db.SurfacePointAt(ext.Center())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("lander at (%.0f, %.0f, %.0f) among %d targets\n",
		lander.Pos.X, lander.Pos.Y, lander.Pos.Z, len(targets))

	k := 5
	ctx := context.Background()
	sess := db.NewSession()
	res, err := sess.MR3Ctx(ctx, lander, k, core.S1, core.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// MR3 guarantees the SET of k nearest; compute the exact traverse for
	// each winner to order the visit plan.
	type visit struct {
		n    core.Neighbor
		d    float64
		path []geom.Vec3
	}
	visits := make([]visit, 0, k)
	for _, n := range res.Neighbors {
		d, path := db.Path.Distance(lander, n.Object.Point)
		visits = append(visits, visit{n, d, path})
	}
	sort.Slice(visits, func(i, j int) bool { return visits[i].d < visits[j].d })

	fmt.Printf("\n%d nearest targets by traverse distance:\n", k)
	for i, v := range visits {
		straight := lander.Pos.Dist(v.n.Object.Point.Pos)
		climb := 0.0
		for j := 1; j < len(v.path); j++ {
			if dz := v.path[j].Z - v.path[j-1].Z; dz > 0 {
				climb += dz
			}
		}
		fmt.Printf("  %d. target %-3d traverse %.0f m (straight %.0f m, +%.0f%% overhead, %.0f m of climb, %d waypoints)\n",
			i+1, v.n.Object.ID, v.d, straight, (v.d/straight-1)*100, climb, len(v.path))
	}

	// How different is the Euclidean ranking? Count rank inversions in the
	// top-k.
	type byDist struct {
		id int64
		d  float64
	}
	var euclid []byDist
	for _, o := range targets {
		euclid = append(euclid, byDist{o.ID, lander.Pos.Dist(o.Point.Pos)})
	}
	sort.Slice(euclid, func(i, j int) bool { return euclid[i].d < euclid[j].d })
	euclidTop := map[int64]bool{}
	for _, e := range euclid[:k] {
		euclidTop[e.id] = true
	}
	diff := 0
	for _, n := range res.Neighbors {
		if !euclidTop[n.Object.ID] {
			diff++
		}
	}
	fmt.Printf("\n%d of the %d surface-nearest targets are NOT in the Euclidean top-%d\n", diff, k, k)

	// Energy budget: which targets are reachable within a 1.2 km traverse?
	budget := 1200.0
	within, err := sess.SurfaceRangeCtx(ctx, lander, budget, core.S2, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d targets reachable within a %.0f m traverse budget\n", len(within.Neighbors), budget)

	// Vehicle stability: the rover cannot climb steep faces. Re-rank under
	// the traversability constraint (the paper's §6 obstacle extension);
	// some targets detour, some become unreachable. Loosen the limit until
	// the lander itself sits on traversable ground.
	maxSlope := 35.0
	for !core.SlopeMask(surface, maxSlope)(lander.Face) {
		maxSlope += 5
	}
	stable, err := sess.MaskedKNNCtx(ctx, lander, k, core.SlopeMask(surface, maxSlope))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d targets reachable at ≤%.0f° slope:\n", len(stable), maxSlope)
	for i, n := range stable {
		free := db.ReferenceDistance(lander, n.Object.Point)
		fmt.Printf("  %d. target %-3d constrained traverse %.0f m (unconstrained %.0f m)\n",
			i+1, n.Object.ID, n.UB, free)
	}

	// Print the traverse to the nearest target as a drive plan.
	if len(visits) > 0 {
		first := visits[0].n
		path := visits[0].path
		fmt.Printf("\ndrive plan to target %d:\n", first.Object.ID)
		step := len(path) / 6
		if step < 1 {
			step = 1
		}
		for j := 0; j < len(path); j += step {
			fmt.Printf("  waypoint %2d: (%.0f, %.0f, %.0f)\n", j, path[j].X, path[j].Y, path[j].Z)
		}
		last := path[len(path)-1]
		fmt.Printf("  arrive:      (%.0f, %.0f, %.0f)\n", last.X, last.Y, last.Z)
	}
}
