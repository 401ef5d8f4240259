// Wildlife monitoring: the paper's motivating application (§1). Animal
// groups inhabit a rugged terrain; a new sighting must be assigned to the
// group whose members are nearest *along the surface* — Euclidean distance
// misranks groups separated by a ridge. The example also finds each group's
// nearest water source by surface distance and the closest pair of groups
// (migration-corridor analysis).
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"math/rand"

	"surfknn/internal/core"
	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

func main() {
	log.SetFlags(0)
	grid := dem.Synthesize(dem.BH, 64, 50, 2026)
	surface := mesh.FromGrid(grid)
	db, err := core.BuildTerrainDB(surface, core.Config{})
	if err != nil {
		log.Fatal(err)
	}
	ext := surface.Extent()
	rng := rand.New(rand.NewSource(11))

	// Three animal groups: clusters of sightings around a den site each.
	groupDens := []geom.Vec2{
		{X: ext.MinX + ext.Width()*0.22, Y: ext.MinY + ext.Height()*0.25},
		{X: ext.MinX + ext.Width()*0.72, Y: ext.MinY + ext.Height()*0.30},
		{X: ext.MinX + ext.Width()*0.50, Y: ext.MinY + ext.Height()*0.78},
	}
	var objs []workload.Object
	groupOf := map[int64]int{}
	for gi, den := range groupDens {
		for s := 0; s < 8; s++ {
			p := geom.Vec2{
				X: den.X + rng.NormFloat64()*ext.Width()*0.04,
				Y: den.Y + rng.NormFloat64()*ext.Height()*0.04,
			}
			sp, err := mesh.MakeSurfacePoint(surface, db.Loc, p)
			if err != nil {
				continue
			}
			id := int64(len(objs))
			objs = append(objs, workload.Object{ID: id, Point: sp})
			groupOf[id] = gi
		}
	}
	db.SetObjects(objs)
	fmt.Printf("%d sightings across %d groups on %.1f km² of rugged terrain\n",
		len(objs), len(groupDens), grid.AreaKm2())

	// A new sighting between the groups: classify by surface 3-NN vote.
	sighting, err := db.SurfacePointAt(geom.Vec2{
		X: ext.MinX + ext.Width()*0.45,
		Y: ext.MinY + ext.Height()*0.45,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	sess := db.NewSession()
	res, err := sess.MR3Ctx(ctx, sighting, 3, core.S1, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	votes := map[int]int{}
	fmt.Printf("\nnew sighting at (%.0f, %.0f):\n", sighting.Pos.X, sighting.Pos.Y)
	for _, n := range res.Neighbors {
		g := groupOf[n.Object.ID]
		votes[g]++
		fmt.Printf("  neighbour %d from group %d, surface distance ≤ %.0f m\n",
			n.Object.ID, g, n.UB)
	}
	best, bestVotes := -1, 0
	for g, v := range votes {
		if v > bestVotes {
			best, bestVotes = g, v
		}
	}
	fmt.Printf("assigned to group %d (%d of 3 votes)\n", best, bestVotes)

	// Euclidean ranking for contrast: does the straight-line nearest
	// sighting belong to a different group?
	bestE, bestD := -1, math.Inf(1)
	for _, o := range objs {
		if d := sighting.Pos.Dist(o.Point.Pos); d < bestD {
			bestD = d
			bestE = groupOf[o.ID]
		}
	}
	if bestE != best {
		fmt.Printf("note: Euclidean 1-NN would have chosen group %d — the surface metric disagrees\n", bestE)
	} else {
		fmt.Printf("(Euclidean 1-NN agrees here; on ridge-separated groups it often would not)\n")
	}

	// Foraging range: sightings within 1.5 km of travel from the den of
	// group 0 (surface range query).
	den, err := db.SurfacePointAt(groupDens[0])
	if err != nil {
		log.Fatal(err)
	}
	rangeRes, err := sess.SurfaceRangeCtx(ctx, den, 1500, core.S2, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d sightings within 1.5 km of travel from group 0's den\n", len(rangeRes.Neighbors))

	// Closest pair of sightings overall (inter-group corridor analysis).
	a, b, err := sess.ClosestPairCtx(ctx, core.S2, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closest pair of sightings: %d (group %d) and %d (group %d), %.0f m apart along the surface\n",
		a.Object.ID, groupOf[a.Object.ID], b.Object.ID, groupOf[b.Object.ID], a.UB)
}
