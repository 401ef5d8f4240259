// Package api is the wire contract of the surfknn HTTP service: every
// request and response body, the exact-float encoding, and the error
// envelope, as one importable package. The server (internal/server), the
// typed client (internal/server/client), the scatter-gather coordinator
// (internal/shard) and the end-to-end tests all speak these types — there is
// exactly one definition of each JSON shape in the module.
//
// The package is deliberately free of engine dependencies (no internal/core,
// no internal/workload): it describes bytes on the wire, nothing else.
// Server-side mapping onto engine types lives with the server.
//
// Versioning: Version names the wire version these types implement; it is
// the /v1 path prefix of every route. Each field additionally carries an
// `api` struct tag recording the version that introduced it, so a reader of
// the contract can tell at a glance what an older peer will and will not
// understand. Fields are never removed or renamed within a version.
package api

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"time"
)

// Version is the wire version these types implement — the path prefix of
// every route (POST /v1/knn, ...).
const Version = "v1"

// Float is a float64 whose JSON form admits infinities. MR3 can decide a
// candidate purely by lower-bound domination, leaving its UB at +Inf;
// encoding/json rejects that, so ±Inf encode as the strings "+Inf"/"-Inf".
// Finite values encode as shortest round-trip numbers, so the peer decodes
// bit-identical float64s either way.
type Float float64

func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return nil, errors.New("NaN distance bound in response")
	}
	return strconv.AppendFloat(nil, v, 'g', -1, 64), nil
}

func (f *Float) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' {
		var str string
		if err := json.Unmarshal(b, &str); err != nil {
			return err
		}
		switch str {
		case "+Inf":
			*f = Float(math.Inf(1))
			return nil
		case "-Inf":
			*f = Float(math.Inf(-1))
			return nil
		}
		return fmt.Errorf("invalid distance bound %q", str)
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Duration is a JSON-encodable timeout: a Go duration string ("500ms").
// The zero value is "absent" (the server applies its default), which is why
// every request field using it is omitempty.
type Duration time.Duration

func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

func (d *Duration) UnmarshalJSON(b []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return errors.New(`timeout must be a duration string like "500ms"`)
	}
	v, err := time.ParseDuration(str)
	if err != nil {
		return fmt.Errorf("timeout: %w", err)
	}
	if v <= 0 {
		return errors.New("timeout must be positive")
	}
	*d = Duration(v)
	return nil
}

// Options is the client view of the engine's MR3 tuning knobs. Pointer
// fields distinguish "absent" (paper default) from an explicit value, so a
// literal 0 is expressible — the same problem the engine's functional
// options solve, with JSON's natural encoding of optionality.
type Options struct {
	Step2Accuracy    *float64 `json:"step2_accuracy,omitempty" api:"v1"`
	OverlapThreshold *float64 `json:"overlap_threshold,omitempty" api:"v1"`
	IOIntegration    *bool    `json:"io_integration,omitempty" api:"v1"`
	DummyLB          *bool    `json:"dummy_lb,omitempty" api:"v1"`
}

// Neighbor is one result object. LB/UB are the exact float64 surface
// distance bounds the engine computed (see Float).
type Neighbor struct {
	ID int64   `json:"id" api:"v1"`
	X  float64 `json:"x" api:"v1"`
	Y  float64 `json:"y" api:"v1"`
	Z  float64 `json:"z" api:"v1"`
	LB Float   `json:"lb" api:"v1"`
	UB Float   `json:"ub" api:"v1"`
}

// Cost is a response's cost summary (the paper's metrics).
type Cost struct {
	Pages     int64 `json:"pages" api:"v1"`
	CPUUs     int64 `json:"cpu_us" api:"v1"`
	ElapsedUs int64 `json:"elapsed_us" api:"v1"`
}

// Result is the body of POST /v1/knn and POST /v1/range.
type Result struct {
	Neighbors []Neighbor `json:"neighbors" api:"v1"`
	Cost      Cost       `json:"cost" api:"v1"`
}

// KNNRequest is the body of POST /v1/knn.
type KNNRequest struct {
	X       float64  `json:"x" api:"v1"`
	Y       float64  `json:"y" api:"v1"`
	K       int      `json:"k" api:"v1"`
	Sched   int      `json:"sched,omitempty" api:"v1"`
	Timeout Duration `json:"timeout,omitempty" api:"v1"`
	Options *Options `json:"options,omitempty" api:"v1"`
}

// RangeRequest is the body of POST /v1/range.
type RangeRequest struct {
	X       float64  `json:"x" api:"v1"`
	Y       float64  `json:"y" api:"v1"`
	Radius  float64  `json:"radius" api:"v1"`
	Sched   int      `json:"sched,omitempty" api:"v1"`
	Timeout Duration `json:"timeout,omitempty" api:"v1"`
	Options *Options `json:"options,omitempty" api:"v1"`
}

// DistanceRequest is the body of POST /v1/distance.
type DistanceRequest struct {
	X        float64  `json:"x" api:"v1"`
	Y        float64  `json:"y" api:"v1"`
	X2       float64  `json:"x2" api:"v1"`
	Y2       float64  `json:"y2" api:"v1"`
	Accuracy float64  `json:"accuracy,omitempty" api:"v1"`
	Sched    int      `json:"sched,omitempty" api:"v1"`
	Timeout  Duration `json:"timeout,omitempty" api:"v1"`
}

// DistanceResponse mirrors the engine's DistanceRange.
type DistanceResponse struct {
	LB         Float   `json:"lb" api:"v1"`
	UB         Float   `json:"ub" api:"v1"`
	Accuracy   float64 `json:"accuracy" api:"v1"`
	Iterations int     `json:"iterations" api:"v1"`
}

// SubscribeRequest is the body of POST /v1/subscribe: register a continuous
// k-NN query at (x, y). The response carries the initial result plus the
// safe radius within which subsequent moves are served without engine work.
type SubscribeRequest struct {
	X       float64  `json:"x" api:"v1"`
	Y       float64  `json:"y" api:"v1"`
	K       int      `json:"k" api:"v1"`
	Sched   int      `json:"sched,omitempty" api:"v1"`
	Timeout Duration `json:"timeout,omitempty" api:"v1"`
	Options *Options `json:"options,omitempty" api:"v1"`
}

// SubscribeResponse is the body of POST /v1/subscribe and of
// POST /v1/subscribe/{id}/move: the subscription's identity, its current
// top-k, and the safe region it certifies. Whether a move was answered from
// the safe region is in the X-Safe-Region header ("hit" / "miss").
type SubscribeResponse struct {
	ID uint64 `json:"id" api:"v1"`
	Result
	// SafeRadius is the planar distance the query point may move from
	// (anchor_x, anchor_y) while the neighbours above stay exact. 0 when
	// nothing could be certified; every such move re-evaluates.
	SafeRadius Float   `json:"safe_radius" api:"v1"`
	AnchorX    float64 `json:"anchor_x" api:"v1"`
	AnchorY    float64 `json:"anchor_y" api:"v1"`
	Epoch      uint64  `json:"epoch" api:"v1"`
}

// MoveRequest is the body of POST /v1/subscribe/{id}/move.
type MoveRequest struct {
	X       float64  `json:"x" api:"v1"`
	Y       float64  `json:"y" api:"v1"`
	Timeout Duration `json:"timeout,omitempty" api:"v1"`
}

// UnsubscribeResponse is the body of DELETE /v1/subscribe/{id}.
type UnsubscribeResponse struct {
	Removed bool `json:"removed" api:"v1"`
}

// UpsertObject is one object in an upsert batch. ID is a pointer so an
// omitted id is distinguishable from a literal 0 and rejected.
type UpsertObject struct {
	ID *int64  `json:"id" api:"v1"`
	X  float64 `json:"x" api:"v1"`
	Y  float64 `json:"y" api:"v1"`
}

// UpsertRequest is the body of POST /v1/objects.
type UpsertRequest struct {
	Objects []UpsertObject `json:"objects" api:"v1"`
}

// UpdateResponse is the body of a successful upsert.
type UpdateResponse struct {
	Epoch uint64 `json:"epoch" api:"v1"`
	Count int    `json:"count" api:"v1"`
}

// DeleteRequest is the body of DELETE /v1/objects.
type DeleteRequest struct {
	IDs []int64 `json:"ids" api:"v1"`
}

// DeleteResponse reports what a delete batch achieved. Missing counts the
// distinct requested ids that were not live — deleting them is not an
// error (the end state is what the client asked for), but the client gets
// to know.
type DeleteResponse struct {
	Epoch   uint64 `json:"epoch" api:"v1"`
	Deleted int    `json:"deleted" api:"v1"`
	Missing int    `json:"missing" api:"v1"`
}

// Healthz is the body of GET /v1/healthz: liveness, the loaded snapshot's
// shape and provenance, and — when the process serves one shard of a tiled
// deployment — the shard's identity, so a coordinator can verify topology
// before taking traffic.
type Healthz struct {
	Status        string `json:"status" api:"v1"`
	Vertices      int    `json:"vertices" api:"v1"`
	Faces         int    `json:"faces" api:"v1"`
	Objects       int    `json:"objects" api:"v1"`
	Epoch         uint64 `json:"epoch" api:"v1"`
	InFlight      int64  `json:"in_flight" api:"v1"`
	CacheEntries  int    `json:"cache_entries" api:"v1"`
	FormatVersion int    `json:"format_version" api:"v1"`
	ShardID       string `json:"shard_id,omitempty" api:"v1"`
	// Shards is the per-shard topology report a coordinator adds to its
	// own health answer; empty on a standalone or shard server.
	Shards []ShardHealth `json:"shards,omitempty" api:"v1"`
}

// ShardHealth is one shard's line in a coordinator's topology report.
type ShardHealth struct {
	ID      string `json:"id" api:"v1"`
	Addr    string `json:"addr" api:"v1"`
	Status  string `json:"status" api:"v1"`
	Epoch   uint64 `json:"epoch" api:"v1"`
	Objects int    `json:"objects" api:"v1"`
}
