package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/geom"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

// The benchmark terrain's own scale: BH, 64×64 cells of 100 m, terrain seed
// 2006, 160 objects placed from seed 2007 — the snapshot `skgen -db` writes
// for the knn_uniform workload — queried at k = 10 under S2 at points of
// the R2 low-discrepancy sequence.
var (
	scaleOnce sync.Once
	scaleDB   *TerrainDB
	scaleQs   []mesh.SurfacePoint
	scaleErr  error
)

func scaleFixture(tb testing.TB) (*TerrainDB, []mesh.SurfacePoint) {
	scaleOnce.Do(func() {
		m := mesh.FromGrid(dem.Synthesize(dem.BH, 64, 100, 2006))
		db, err := BuildTerrainDB(m, Config{})
		if err != nil {
			scaleErr = err
			return
		}
		objs, err := workload.RandomObjects(m, db.Loc, 160, 2007)
		if err != nil {
			scaleErr = err
			return
		}
		db.SetObjects(objs)
		scaleDB, scaleQs = db, r2Points(db, 1, 200)
	})
	if scaleErr != nil {
		tb.Fatal(scaleErr)
	}
	return scaleDB, scaleQs
}

// r2Points returns n surface points of the R2 sequence (multiples of the
// plastic number's reciprocal powers, modulo 1) shifted by the seed, inside
// a 5 % margin of the extent.
func r2Points(db *TerrainDB, seed int64, n int) []mesh.SurfacePoint {
	const g = 1.32471795724474602596
	rng := rand.New(rand.NewSource(seed))
	sx, sy := rng.Float64(), rng.Float64()
	ext := db.Mesh.Extent()
	mx, my := 0.05*ext.Width(), 0.05*ext.Height()
	var out []mesh.SurfacePoint
	for i := 0; len(out) < n; i++ {
		_, u := math.Modf(sx + float64(i+1)/g)
		_, v := math.Modf(sy + float64(i+1)/(g*g))
		q, err := db.SurfacePointAt(geom.Vec2{
			X: ext.MinX + mx + u*(ext.Width()-2*mx),
			Y: ext.MinY + my + v*(ext.Height()-2*my),
		})
		if err == nil {
			out = append(out, q)
		}
	}
	return out
}

// BenchmarkKNNUniformScale profiles one warm session at the knn_uniform
// workload's scale, where the root BenchmarkSequentialKNN fixture (33×33,
// 80 objects, k = 5) is too small to show where the engine's time goes.
// Besides ns/op and allocs/op (0 once warm) it reports per query the SDN
// kernel pairs evaluated (pairs/op), the lower-bound estimations run
// (lb/op), the dummy-lower-bound decisions the straight-line chain settled
// (line/op), the bounds left capped at the exclusion bound (capped/op), the
// level-network vertices the shared upper-bound searches settled
// (ub_settled/op), and the pages accessed (pages/op).
//
//	go test ./internal/core -run '^$' -bench KNNUniformScale -cpuprofile cpu.out
func BenchmarkKNNUniformScale(b *testing.B) {
	db, qs := scaleFixture(b)
	s := db.NewSession()
	for _, q := range qs {
		if _, err := s.MR3Ctx(bg, q, 10, S2, Options{}); err != nil {
			b.Fatal(err)
		}
	}
	pairs0 := s.sdnSc.Pairs()
	settled0 := s.est.SharedSettled
	var lbs, lines, capped, pages int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.MR3Ctx(bg, qs[i%len(qs)], 10, S2, Options{})
		if err != nil {
			b.Fatal(err)
		}
		tot := res.Cost.Total()
		lbs += int64(tot.LowerBounds)
		lines += int64(tot.Envelope.Line)
		capped += int64(tot.CappedBounds)
		pages += res.Cost.Pages()
	}
	b.StopTimer()
	n := float64(b.N)
	b.ReportMetric(float64(s.sdnSc.Pairs()-pairs0)/n, "pairs/op")
	b.ReportMetric(float64(lbs)/n, "lb/op")
	b.ReportMetric(float64(lines)/n, "line/op")
	b.ReportMetric(float64(capped)/n, "capped/op")
	b.ReportMetric(float64(s.est.SharedSettled-settled0)/n, "ub_settled/op")
	b.ReportMetric(float64(pages)/n, "pages/op")
}
