package core

import (
	"math"
	"sort"
	"sync"
	"testing"

	"surfknn/internal/dem"
	"surfknn/internal/mesh"
	"surfknn/internal/obs"
	"surfknn/internal/workload"
)

// Dynamic-object tests: epoch visibility under concurrent updates and the
// objstore-vs-rebuild equivalence fuzz target.

// TestConcurrentReadersUnderUpdates runs 8 reader goroutines querying while
// a writer alternately inserts and deletes a pair of sentinel objects at
// the query point. Epoch consistency means every reader sees both sentinels
// or neither — a torn read would surface exactly one — and each reader's
// Result.Epoch never goes backwards. After the writer quiesces and all pins
// are released, every retired epoch must have been reclaimed. Run under
// -race this also proves the pin/publish protocol is data-race free.
func TestConcurrentReadersUnderUpdates(t *testing.T) {
	db := buildDB(t, dem.BH, 8, 20, 31)
	reg := obs.NewRegistry()
	db.Instrument(reg)
	store := db.ObjectStore()
	store.SetCompactThreshold(3) // force compactions into the race window
	q := queryPoints(t, db, 1, 5)[0]
	sentinels := []workload.Object{
		{ID: 9001, Point: q},
		{ID: 9002, Point: q},
	}

	const readers = 8
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := db.NewSession()
			var lastEpoch uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := sess.MR3Ctx(bg, q, 3, S2, Options{})
				if err != nil {
					t.Errorf("reader MR3: %v", err)
					return
				}
				if res.Epoch < lastEpoch {
					t.Errorf("reader epoch went backwards: %d after %d", res.Epoch, lastEpoch)
					return
				}
				lastEpoch = res.Epoch
				saw9001, saw9002 := false, false
				for _, n := range res.Neighbors {
					switch n.Object.ID {
					case 9001:
						saw9001 = true
					case 9002:
						saw9002 = true
					}
				}
				if saw9001 != saw9002 {
					t.Errorf("torn read at epoch %d: sentinel 9001=%v 9002=%v",
						res.Epoch, saw9001, saw9002)
					return
				}
			}
		}()
	}

	for i := 0; i < 100; i++ {
		store.Upsert(sentinels)
		store.Delete([]int64{9001, 9002})
	}
	close(stop)
	wg.Wait()

	if got := store.LiveEpochs(); got != 1 {
		t.Errorf("LiveEpochs after quiesce = %d, want 1", got)
	}
	created, reclaimed := reg.EpochsCreated.Value(), reg.EpochsReclaimed.Value()
	if created != 200 || reclaimed != created {
		t.Errorf("epochs created/reclaimed = %d/%d, want 200/200", created, reclaimed)
	}
}

// eqDB lazily builds the equivalence fixture: two independent TerrainDBs
// over the same deterministic mesh. dyn takes live updates; ref is rebuilt
// statically from the survivors for every comparison.
var eqDB struct {
	once    sync.Once
	dyn     *TerrainDB
	ref     *TerrainDB
	initial []workload.Object
	err     error
}

func getEqDB(t *testing.T) (dyn, ref *TerrainDB, initial []workload.Object) {
	eqDB.once.Do(func() {
		m := mesh.FromGrid(dem.Synthesize(dem.BH, 8, 10, 43))
		if eqDB.dyn, eqDB.err = BuildTerrainDB(m, Config{}); eqDB.err != nil {
			return
		}
		if eqDB.ref, eqDB.err = BuildTerrainDB(m, Config{}); eqDB.err != nil {
			return
		}
		eqDB.initial, eqDB.err = workload.RandomObjects(m, eqDB.dyn.Loc, 8, 7)
	})
	if eqDB.err != nil {
		t.Fatal(eqDB.err)
	}
	return eqDB.dyn, eqDB.ref, eqDB.initial
}

// FuzzObjstoreEquivalence is the dynamic-correctness gate: any interleaving
// of inserts, moves and deletes followed by a k-NN query must produce the
// same answer as rebuilding a fresh static TerrainDB from the surviving
// objects — same result-set IDs (modulo exact ties at the k-th distance)
// and bitwise-equal sorted reference distances. Op stream: byte pairs
// (opcode, param); the compaction threshold also comes from the input so
// both the delta-overlay and freshly-compacted read paths are exercised.
//
// Upper/lower bounds are deliberately NOT compared bit-for-bit: MR3's bound
// refinement is candidate-order dependent, and the merged base+delta
// traversal may legally rank candidates in a different order than the
// rebuilt tree. The decided k-set and the reference metric are the
// order-independent contract.
func FuzzObjstoreEquivalence(f *testing.F) {
	f.Add([]byte{4, 0x00, 10, 0x01, 3, 0x02, 200}, 0.3, 0.7, uint8(3))
	f.Add([]byte{1, 0x01, 0, 0x01, 1, 0x01, 2, 0x01, 3}, 0.5, 0.5, uint8(1))
	f.Add([]byte{2, 0x00, 50, 0x02, 50, 0x01, 0, 0x00, 51}, 0.9, 0.1, uint8(5))
	f.Fuzz(func(t *testing.T, ops []byte, fx, fy float64, kraw uint8) {
		dyn, ref, initial := getEqDB(t)
		q, ok := fuzzQueryPoint(dyn, fx, fy)
		if !ok {
			t.Skip("degenerate query position")
		}
		dyn.SetObjects(initial)
		store := dyn.ObjectStore()
		if len(ops) > 0 {
			store.SetCompactThreshold(1 + int(ops[0])%8)
			ops = ops[1:]
		}
		if len(ops) > 128 {
			ops = ops[:128]
		}
		nextID := int64(1000)
		for i := 0; i+1 < len(ops); i += 2 {
			op, param := ops[i], ops[i+1]
			switch op % 3 {
			case 0: // insert a fresh object at a position derived from param
				p, ok := fuzzQueryPoint(dyn, float64(param)/255, float64(param^0x5a)/255)
				if !ok {
					continue
				}
				store.Upsert([]workload.Object{{ID: nextID, Point: p}})
				nextID++
			case 1: // delete a live object picked by param
				live := dyn.Objects()
				if len(live) == 0 {
					continue
				}
				store.Delete([]int64{live[int(param)%len(live)].ID})
			default: // move a live object picked by param
				live := dyn.Objects()
				if len(live) == 0 {
					continue
				}
				p, ok := fuzzQueryPoint(dyn, float64(param^0xc3)/255, float64(param)/255)
				if !ok {
					continue
				}
				store.Upsert([]workload.Object{{ID: live[int(param)%len(live)].ID, Point: p}})
			}
		}

		survivors := dyn.Objects()
		ref.SetObjects(survivors)
		if len(survivors) == 0 {
			if _, err := dyn.NewSession().MR3Ctx(bg, q, 1, S2, Options{}); err == nil {
				t.Fatal("MR3 over an emptied store should fail to bound")
			}
			return
		}
		k := 1 + int(kraw)%len(survivors)

		resDyn, errDyn := dyn.NewSession().MR3Ctx(bg, q, k, S2, Options{})
		resRef, errRef := ref.NewSession().MR3Ctx(bg, q, k, S2, Options{})
		if (errDyn == nil) != (errRef == nil) {
			t.Fatalf("error divergence: dynamic %v vs rebuilt %v", errDyn, errRef)
		}
		if errDyn != nil {
			return
		}
		if len(resDyn.Neighbors) != len(resRef.Neighbors) {
			t.Fatalf("result sizes differ: %d vs %d", len(resDyn.Neighbors), len(resRef.Neighbors))
		}

		// Bitwise-equal sorted reference distances.
		distOf := func(ns []Neighbor) []float64 {
			out := make([]float64, len(ns))
			for i, n := range ns {
				out[i] = dyn.ReferenceDistance(q, n.Object.Point)
			}
			sort.Float64s(out)
			return out
		}
		dDyn, dRef := distOf(resDyn.Neighbors), distOf(resRef.Neighbors)
		for i := range dDyn {
			if math.Float64bits(dDyn[i]) != math.Float64bits(dRef[i]) {
				t.Fatalf("reference distance %d differs: %x vs %x (%v vs %v)",
					i, math.Float64bits(dDyn[i]), math.Float64bits(dRef[i]), dDyn[i], dRef[i])
			}
		}

		// Same ID sets, except IDs tied exactly at the k-th distance may
		// swap between the two runs.
		kth := dDyn[len(dDyn)-1]
		ids := func(ns []Neighbor) map[int64]bool {
			out := make(map[int64]bool, len(ns))
			for _, n := range ns {
				out[n.Object.ID] = true
			}
			return out
		}
		idsDyn, idsRef := ids(resDyn.Neighbors), ids(resRef.Neighbors)
		for id := range idsDyn {
			if !idsRef[id] {
				o, _ := dyn.Object(id)
				if d := dyn.ReferenceDistance(q, o.Point); d != kth {
					t.Fatalf("object %d (dist %v) only in dynamic result; k-th dist %v", id, d, kth)
				}
			}
		}
		for id := range idsRef {
			if !idsDyn[id] {
				o, ok := ref.Object(id)
				if !ok {
					t.Fatalf("object %d in rebuilt result but not in rebuilt table", id)
				}
				if d := dyn.ReferenceDistance(q, o.Point); d != kth {
					t.Fatalf("object %d (dist %v) only in rebuilt result; k-th dist %v", id, d, kth)
				}
			}
		}
	})
}
