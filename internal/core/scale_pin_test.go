package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"
)

// The answers at benchmark scale, pinned: a SHA-256 over every query of
// BenchmarkKNNUniformScale's fixture (200 R2 points, k = 10) under S1, S2
// and S3 — per neighbour its ID and the bits of its bounds, per query
// Cost.Pages() and the upper-bound, lower-bound and iteration counts, and
// for every 10th point the bits of MR3SafeCtx's radius and guard. An engine
// change that claims bit-identical results must leave the sum as it is.
// Under the race detector the queries run ten times slower, so a fixed
// subset (the first 20 points) is pinned with its own sum.
const (
	pinnedScaleSHA256     = "02f664cee175c6170fa1e2cce5dac6f26f84b515b7a6fb2ce8ed5a7807e4466c"
	pinnedScaleRaceSHA256 = "a420bce204b823baa3221e4d6b9b84e63f915c66e194e88406fbeb50756985c5"
)

// scalePinSum runs the first n points of the scale fixture under every
// schedule on one session and returns the hex SHA-256 of their results.
func scalePinSum(t *testing.T, n int) string {
	t.Helper()
	db, qs := scaleFixture(t)
	s := db.NewSession()
	h := sha256.New()
	for _, sched := range []Schedule{S1, S2, S3} {
		for i, q := range qs[:n] {
			res, err := s.MR3Ctx(bg, q, 10, sched, Options{})
			if err != nil {
				t.Fatal(err)
			}
			tot := res.Cost.Total()
			putInts(h, int64(len(res.Neighbors)), res.Cost.Pages(),
				int64(tot.UpperBounds), int64(tot.LowerBounds), int64(tot.Iterations))
			for _, nb := range res.Neighbors {
				putInts(h, nb.Object.ID, int64(math.Float64bits(nb.LB)), int64(math.Float64bits(nb.UB)))
			}
			if i%10 != 0 {
				continue
			}
			_, sr, err := s.MR3SafeCtx(bg, q, 10, sched, Options{})
			if err != nil {
				t.Fatal(err)
			}
			putInts(h, int64(math.Float64bits(sr.Radius)), int64(math.Float64bits(sr.Guard)))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func putInts(h hash.Hash, xs ...int64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
}

func TestScaleAnswersPinned(t *testing.T) {
	n, want := 200, pinnedScaleSHA256
	if raceEnabled {
		n, want = 20, pinnedScaleRaceSHA256
	}
	if got := scalePinSum(t, n); got != want {
		t.Fatalf("SHA-256 of %d points × S1/S2/S3 at benchmark scale: %s, pinned %s", n, got, want)
	}
}
