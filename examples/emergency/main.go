// Emergency scene coordination: §1 lists "emergency scene coordination
// (e.g., to fight bush fires)" among sk-NN's applications. A fire ignites
// on rugged terrain; command needs (a) the crews nearest to it by actual
// ground travel, (b) which crews can reach it within a response-time
// budget, and (c) the evacuation isochrone — the terrain reachable from the
// ignition point within a walking budget — computed with the exact geodesic
// field.
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geodesic"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

func main() {
	log.SetFlags(0)
	grid := dem.Synthesize(dem.BH, 32, 50, 911)
	surface := mesh.FromGrid(grid)
	db, err := core.BuildTerrainDB(surface, core.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// Fire crews stationed around the area.
	crews, err := workload.RandomObjects(surface, db.Loc, 12, 3)
	if err != nil {
		log.Fatal(err)
	}
	db.SetObjects(crews)

	ext := surface.Extent()
	fire, err := db.SurfacePointAt(geom.Vec2{
		X: ext.MinX + ext.Width()*0.6,
		Y: ext.MinY + ext.Height()*0.55,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fire reported at (%.0f, %.0f), elevation %.0f m; %d crews in the field\n",
		fire.Pos.X, fire.Pos.Y, fire.Pos.Z, len(crews))

	// (a) The three crews nearest by ground travel. A Result aliases its
	// session's buffers until the session's next query, so what is needed
	// later is copied out first.
	ctx := context.Background()
	sess := db.NewSession()
	res, err := sess.MR3Ctx(ctx, fire, 3, core.S1, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	nearest := res.Neighbors[0]
	fmt.Println("\nnearest crews by surface distance:")
	for i, n := range res.Neighbors {
		straight := fire.Pos.Dist(n.Object.Point.Pos)
		fmt.Printf("  %d. crew %-3d ≤ %.0f m of travel (%.0f m line of sight)\n",
			i+1, n.Object.ID, n.UB, straight)
	}

	// (b) Response budget: crews within 800 m of travel.
	budget := 800.0
	within, err := sess.SurfaceRangeCtx(ctx, fire, budget, core.S2, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d crew(s) within the %.0f m response budget\n", len(within.Neighbors), budget)

	// (c) Evacuation isochrone: how much terrain lies within 400 m of
	// ground travel from the ignition point (exact geodesic field).
	solver := geodesic.NewSolver(surface)
	radius := 400.0
	iso := solver.Isochrone(fire, radius)
	fmt.Printf("\n%d of %d terrain vertices lie within %.0f m of ground travel\n",
		len(iso), surface.NumVerts(), radius)
	// Farthest reachable elevation within the zone (fire spreads uphill).
	maxZ, maxD := math.Inf(-1), 0.0
	for v, d := range iso {
		if z := surface.Verts[v].Z; z > maxZ {
			maxZ, maxD = z, d
		}
	}
	fmt.Printf("highest point in the zone: %.0f m elevation, %.0f m of travel away\n", maxZ, maxD)

	// Line-of-sight vs ground travel: the ratio commanders must plan for.
	ratio := nearest.UB / fire.Pos.Dist(nearest.Object.Point.Pos)
	fmt.Printf("\nground travel to the nearest crew is %.1f× the line-of-sight distance\n", ratio)
}
