// Quickstart: build a synthetic terrain, index a few objects and answer a
// surface k-NN query with MR3 — the minimal end-to-end use of the library.
package main

import (
	"context"
	"fmt"
	"log"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

func main() {
	log.SetFlags(0)

	// 1. A terrain: 33×33 elevation samples, 50 m apart (1.6 km × 1.6 km),
	//    using the rugged "BH" preset.
	grid := dem.Synthesize(dem.BH, 32, 50, 42)
	surface := mesh.FromGrid(grid)
	fmt.Printf("terrain: %d vertices, %d triangles, %.2f km²\n",
		surface.NumVerts(), surface.NumFaces(), grid.AreaKm2())

	// 2. The terrain database: builds the DMTM (multiresolution mesh with
	//    distance annotation), the MSDN (support distance networks) and the
	//    paged stores, all derived from the surface.
	db, err := core.BuildTerrainDB(surface, core.Config{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Objects on the surface (uniformly placed here; any surface points
	//    work) and the 2-D R-tree over their projections.
	objects, err := workload.RandomObjects(surface, db.Loc, 50, 7)
	if err != nil {
		log.Fatal(err)
	}
	db.SetObjects(objects)

	// 4. A query point anywhere on the surface.
	q, err := db.SurfacePointAt(geom.Vec2{X: 800, Y: 800})
	if err != nil {
		log.Fatal(err)
	}

	// 5. The surface 5-NN query, using the s=1 resolution schedule. Queries
	//    run through a session (one per goroutine, reusable); the context
	//    cancels or deadlines this one query.
	sess := db.NewSession()
	res, err := sess.MR3Ctx(context.Background(), q, 5, core.S1, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query at (%.0f, %.0f, %.0f):\n", q.Pos.X, q.Pos.Y, q.Pos.Z)
	for i, n := range res.Neighbors {
		euclid := q.Pos.Dist(n.Object.Point.Pos)
		fmt.Printf("  %d. object %-3d surface distance ∈ [%.1f, %.1f] m (straight line %.1f m)\n",
			i+1, n.Object.ID, n.LB, n.UB, euclid)
	}
	fmt.Printf("cost: %s\n", res.Metrics())
}
