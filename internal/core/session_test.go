package core

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/mesh"
	"surfknn/internal/workload"
)

func TestOptionsDefaults(t *testing.T) {
	// Zero value selects the paper's defaults.
	o := Options{}.withDefaults()
	if o.Step2Accuracy != 0.8 || o.OverlapThreshold != 0.8 {
		t.Errorf("zero Options resolved to %+v, want 0.8/0.8", o)
	}
	// Explicit values pass through.
	o = Options{Step2Accuracy: 0.5, OverlapThreshold: 0.9}.withDefaults()
	if o.Step2Accuracy != 0.5 || o.OverlapThreshold != 0.9 {
		t.Errorf("explicit Options resolved to %+v", o)
	}
	// Negative means a literal 0 (previously unreachable).
	o = Options{Step2Accuracy: -1, OverlapThreshold: -1}.withDefaults()
	if o.Step2Accuracy != 0 || o.OverlapThreshold != 0 {
		t.Errorf("negative Options resolved to %+v, want 0/0", o)
	}
}

func TestLiteralZeroOptionsRun(t *testing.T) {
	// A query with literal-zero fractions must still answer correctly:
	// Step2Accuracy 0 accepts any step-2 bound, OverlapThreshold 0 merges
	// any intersecting I/O regions.
	db := buildDB(t, dem.BH, 16, 40, 3)
	q := queryPoints(t, db, 1, 5)[0]
	res, err := db.NewSession().MR3Ctx(bg, q, 4, S1, Options{Step2Accuracy: -1, OverlapThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	sameKSet(t, db, q, res.Neighbors, 4)
}

func TestSessionReuseMatchesOneShot(t *testing.T) {
	// A session reused across queries must report the same results and the
	// same per-query page counts as one-shot queries (the paper's
	// sequential harness semantics).
	db := buildDB(t, dem.BH, 16, 50, 7)
	qs := queryPoints(t, db, 4, 11)
	s := db.NewSession()
	for i, q := range qs {
		oneShot, err := db.NewSession().MR3Ctx(bg, q, 3, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		reused, err := s.MR3Ctx(bg, q, 3, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if oneShot.Metrics().Pages != reused.Metrics().Pages {
			t.Errorf("query %d: one-shot pages %d != session pages %d",
				i, oneShot.Metrics().Pages, reused.Metrics().Pages)
		}
		if len(oneShot.Neighbors) != len(reused.Neighbors) {
			t.Fatalf("query %d: result sizes differ", i)
		}
		for j := range oneShot.Neighbors {
			if oneShot.Neighbors[j].Object.ID != reused.Neighbors[j].Object.ID {
				t.Errorf("query %d: neighbour %d differs", i, j)
			}
		}
	}
}

// TestCancelledQueryLeavesSessionClean covers every Session query method: an
// already-cancelled ctx returns context.Canceled, leaves nothing pinned —
// neither an object epoch (an update published afterwards must leave exactly
// one live epoch) nor a buffer-pool page — and the session answers its next
// query bit-identically to a fresh session.
func TestCancelledQueryLeavesSessionClean(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 30, 9)
	q := queryPoints(t, db, 1, 13)[0]
	other := db.Objects()[0]
	all := func(mesh.FaceID) bool { return true }
	cancelled, cancel := context.WithCancel(bg)
	cancel()

	// answer is everything a query returns, detached from session buffers.
	type answer struct {
		ns    []Neighbor
		pages int64
		dr    DistanceRange
		sr    SafeRegion
	}
	of := func(res Result) answer {
		return answer{ns: append([]Neighbor(nil), res.Neighbors...), pages: res.Cost.Pages()}
	}
	queries := []struct {
		name string
		run  func(ctx context.Context, s *Session) (answer, error)
	}{
		{"MR3Ctx", func(ctx context.Context, s *Session) (answer, error) {
			res, err := s.MR3Ctx(ctx, q, 3, S1, Options{})
			return of(res), err
		}},
		{"EACtx", func(ctx context.Context, s *Session) (answer, error) {
			res, err := s.EACtx(ctx, q, 3)
			return of(res), err
		}},
		{"SurfaceRangeCtx", func(ctx context.Context, s *Session) (answer, error) {
			res, err := s.SurfaceRangeCtx(ctx, q, 100, S1, Options{})
			return of(res), err
		}},
		{"ClosestPairCtx", func(ctx context.Context, s *Session) (answer, error) {
			a, b, err := s.ClosestPairCtx(ctx, S3, Options{})
			return answer{ns: []Neighbor{a, b}}, err
		}},
		{"MR3SafeCtx", func(ctx context.Context, s *Session) (answer, error) {
			res, sr, err := s.MR3SafeCtx(ctx, q, 3, S1, Options{})
			ans := of(res)
			ans.sr = sr
			return ans, err
		}},
		{"MaskedKNNCtx", func(ctx context.Context, s *Session) (answer, error) {
			ns, err := s.MaskedKNNCtx(ctx, q, 3, all)
			return answer{ns: ns}, err
		}},
		{"DistanceWithAccuracyCtx", func(ctx context.Context, s *Session) (answer, error) {
			dr, res, err := s.DistanceWithAccuracyCtx(ctx, q, other.Point, 0.7, S2)
			ans := of(res)
			ans.dr = dr
			return ans, err
		}},
	}
	for _, qr := range queries {
		t.Run(qr.name, func(t *testing.T) {
			s := db.NewSession()
			if _, err := qr.run(cancelled, s); !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled ctx: err = %v, want context.Canceled", err)
			}
			// Retire the epoch the cancelled query read: a leaked pin would
			// keep it live beside the new one.
			db.ObjectStore().Upsert([]workload.Object{other})
			if n := db.ObjectStore().LiveEpochs(); n != 1 {
				t.Errorf("LiveEpochs = %d after a cancelled query, want 1", n)
			}
			got, err := qr.run(bg, s)
			if err != nil {
				t.Fatalf("query after cancellation: %v", err)
			}
			want, err := qr.run(bg, db.NewSession())
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("reused session answers %+v, fresh session %+v", got, want)
			}
		})
	}
}

// TestConcurrentQueries hammers one shared TerrainDB from many goroutines
// with a mix of query types (run under -race by the gate), then checks every
// goroutine saw exactly the sequential answers — results AND the per-query
// page-access metric.
func TestConcurrentQueries(t *testing.T) {
	db := buildDB(t, dem.BH, 16, 60, 17)
	qs := queryPoints(t, db, 6, 19)
	const k = 3
	radius := db.Mesh.Extent().Width() / 4

	// Sequential ground truth, one fresh session per query (the paper's
	// harness semantics).
	type knnTruth struct {
		ids   []int64
		pages int64
	}
	knnWant := make([]knnTruth, len(qs))
	rangeWant := make([]knnTruth, len(qs))
	accWant := make([]DistanceRange, len(qs))
	for i, q := range qs {
		res, err := db.NewSession().MR3Ctx(bg, q, k, S1, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range res.Neighbors {
			knnWant[i].ids = append(knnWant[i].ids, n.Object.ID)
		}
		knnWant[i].pages = res.Metrics().Pages

		rres, err := db.NewSession().SurfaceRangeCtx(bg, q, radius, S2, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range rres.Neighbors {
			rangeWant[i].ids = append(rangeWant[i].ids, n.Object.ID)
		}
		rangeWant[i].pages = rres.Metrics().Pages

		dr, _, err := db.NewSession().DistanceWithAccuracyCtx(bg, q, db.Objects()[i].Point, 0.7, S2)
		if err != nil {
			t.Fatal(err)
		}
		accWant[i] = dr
	}

	const workers = 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i, q := range qs {
				switch (w + i) % 3 {
				case 0:
					res, err := s.MR3Ctx(bg, q, k, S1, Options{})
					if err != nil {
						t.Errorf("worker %d MR3 %d: %v", w, i, err)
						return
					}
					if res.Metrics().Pages != knnWant[i].pages {
						t.Errorf("worker %d MR3 %d: pages %d, want %d",
							w, i, res.Metrics().Pages, knnWant[i].pages)
					}
					for j, n := range res.Neighbors {
						if n.Object.ID != knnWant[i].ids[j] {
							t.Errorf("worker %d MR3 %d: neighbour %d = %d, want %d",
								w, i, j, n.Object.ID, knnWant[i].ids[j])
						}
					}
				case 1:
					res, err := s.SurfaceRangeCtx(bg, q, radius, S2, Options{})
					if err != nil {
						t.Errorf("worker %d range %d: %v", w, i, err)
						return
					}
					if res.Metrics().Pages != rangeWant[i].pages {
						t.Errorf("worker %d range %d: pages %d, want %d",
							w, i, res.Metrics().Pages, rangeWant[i].pages)
					}
					if len(res.Neighbors) != len(rangeWant[i].ids) {
						t.Errorf("worker %d range %d: %d results, want %d",
							w, i, len(res.Neighbors), len(rangeWant[i].ids))
						continue
					}
					for j, n := range res.Neighbors {
						if n.Object.ID != rangeWant[i].ids[j] {
							t.Errorf("worker %d range %d: result %d differs", w, i, j)
						}
					}
				default:
					dr, _, err := s.DistanceWithAccuracyCtx(bg, q, db.Objects()[i].Point, 0.7, S2)
					if err != nil {
						t.Errorf("worker %d accuracy %d: %v", w, i, err)
						return
					}
					if dr != accWant[i] {
						t.Errorf("worker %d accuracy %d: %+v, want %+v", w, i, dr, accWant[i])
					}
				}
			}
		}(w)
	}
	wg.Wait()
}
