package surfknn_test

import (
	"context"
	"fmt"

	"surfknn"
)

// ExampleSession_MR3Ctx runs the canonical surface k-NN query end to end.
func ExampleSession_MR3Ctx() {
	grid := surfknn.Synthesize(surfknn.BH, 16, 50, 42)
	surface := surfknn.FromGrid(grid)
	db, err := surfknn.BuildTerrainDB(surface, surfknn.Config{})
	if err != nil {
		panic(err)
	}
	objs, err := surfknn.RandomObjects(surface, db.Loc, 20, 7)
	if err != nil {
		panic(err)
	}
	db.SetObjects(objs)

	q, err := db.SurfacePointAt(surfknn.Vec2{X: 400, Y: 400})
	if err != nil {
		panic(err)
	}
	res, err := db.NewSession().MR3Ctx(context.Background(), q, 3, surfknn.S1, surfknn.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Neighbors), "neighbours found")
	for _, n := range res.Neighbors {
		if n.LB > n.UB {
			fmt.Println("invalid range!")
		}
	}
	// Output: 3 neighbours found
}

// ExampleSession_SurfaceRangeCtx finds every object within a travel budget.
func ExampleSession_SurfaceRangeCtx() {
	grid := surfknn.Synthesize(surfknn.EP, 16, 50, 1)
	surface := surfknn.FromGrid(grid)
	db, err := surfknn.BuildTerrainDB(surface, surfknn.Config{})
	if err != nil {
		panic(err)
	}
	objs, err := surfknn.RandomObjects(surface, db.Loc, 30, 2)
	if err != nil {
		panic(err)
	}
	db.SetObjects(objs)

	q, err := db.SurfacePointAt(surfknn.Vec2{X: 400, Y: 400})
	if err != nil {
		panic(err)
	}
	res, err := db.NewSession().SurfaceRangeCtx(context.Background(), q, 1e9, surfknn.S2, surfknn.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Neighbors) == len(objs))
	// Output: true
}

// ExampleExactDistance compares the exact geodesic with the straight line.
func ExampleExactDistance() {
	grid := surfknn.Synthesize(surfknn.BH, 8, 50, 3)
	surface := surfknn.FromGrid(grid)
	db, err := surfknn.BuildTerrainDB(surface, surfknn.Config{})
	if err != nil {
		panic(err)
	}
	a, _ := db.SurfacePointAt(surfknn.Vec2{X: 30, Y: 30})
	b, _ := db.SurfacePointAt(surfknn.Vec2{X: 370, Y: 360})
	exact := surfknn.ExactDistance(surface, a, b)
	chord := a.Pos.Dist(b.Pos)
	fmt.Println(exact >= chord-1e-9)
	// Output: true
}
