package core

import (
	"math/rand"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

// TestMR3RandomisedRobustness hammers MR3 with many random small
// configurations — terrains, presets, object counts, ks, schedules and
// query positions (including degenerate ones at vertices and on edges) —
// always checking the k-set against brute force. This is the randomized
// end-to-end guard for the whole pipeline.
func TestMR3RandomisedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("randomised sweep is slow")
	}
	rng := rand.New(rand.NewSource(20060714))
	scheds := []Schedule{S1, S2, S3}
	for trial := 0; trial < 12; trial++ {
		preset := dem.BH
		if trial%2 == 1 {
			preset = dem.EP
		}
		size := 8
		if trial%3 == 0 {
			size = 16
		}
		m := mesh.FromGrid(dem.Synthesize(preset, size, 10, rng.Int63()))
		db, err := BuildTerrainDB(m, Config{})
		if err != nil {
			t.Fatal(err)
		}
		nObj := 5 + rng.Intn(40)
		objs, err := workload.RandomObjects(m, db.Loc, nObj, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		db.SetObjects(objs)

		ext := m.Extent()
		var q mesh.SurfacePoint
		switch trial % 3 {
		case 0: // random interior point
			q, err = db.SurfacePointAt(geom.Vec2{
				X: ext.MinX + rng.Float64()*ext.Width(),
				Y: ext.MinY + rng.Float64()*ext.Height(),
			})
		case 1: // exactly at a mesh vertex
			v := mesh.VertexID(rng.Intn(m.NumVerts()))
			q = mesh.SurfacePoint{Pos: m.Verts[v], Face: m.FacesOfVertex(v)[0]}
		default: // exactly at an object's position (distance 0 neighbour)
			o := objs[rng.Intn(len(objs))]
			q = o.Point
		}
		if err != nil {
			t.Fatal(err)
		}
		k := 1 + rng.Intn(nObj)
		sched := scheds[rng.Intn(len(scheds))]
		res, err := db.NewSession().MR3Ctx(bg, q, k, sched, Options{})
		if err != nil {
			t.Fatalf("trial %d (%s size=%d n=%d k=%d s=%d): %v",
				trial, preset.Name, size, nObj, k, sched, err)
		}
		if len(res.Neighbors) != k {
			t.Fatalf("trial %d: %d neighbours, want %d", trial, len(res.Neighbors), k)
		}
		sameKSet(t, db, q, res.Neighbors, k)
	}
}
