package api

// Shard-internal wire types: the decomposed MR3 primitives the scatter-
// gather coordinator (internal/shard) drives against individual shard
// servers under /v1/shard/*. These routes are part of the deployment's
// internal fabric, not the public query surface — a coordinator is the only
// intended caller — but they version and evolve exactly like the rest of
// the contract.

// Candidate is one object on the wire between coordinator and shard. It
// carries the full surface point — exact coordinates plus the mesh face the
// point lies on — so the receiving shard never re-lifts (x, y) onto the
// terrain: re-lifting a point that sits exactly on a mesh edge could pick
// the other incident face and perturb the distance bounds, breaking the
// bit-identity contract.
type Candidate struct {
	ID   int64   `json:"id" api:"v1"`
	X    float64 `json:"x" api:"v1"`
	Y    float64 `json:"y" api:"v1"`
	Z    float64 `json:"z" api:"v1"`
	Face int32   `json:"face" api:"v1"`
}

// ShardKNN2DRequest is the body of POST /v1/shard/knn2d: MR3 step 1 over
// this shard's object partition.
type ShardKNN2DRequest struct {
	X float64 `json:"x" api:"v1"`
	Y float64 `json:"y" api:"v1"`
	K int     `json:"k" api:"v1"`
}

// ShardRange2DRequest is the body of POST /v1/shard/range2d: MR3 step 3
// over this shard's object partition.
type ShardRange2DRequest struct {
	X      float64 `json:"x" api:"v1"`
	Y      float64 `json:"y" api:"v1"`
	Radius float64 `json:"radius" api:"v1"`
}

// CandidatesResponse is the body of the 2-D primitive responses: the
// matching objects of this shard's partition, read at one epoch.
type CandidatesResponse struct {
	Epoch      uint64      `json:"epoch" api:"v1"`
	Candidates []Candidate `json:"candidates" api:"v1"`
}

// ShardKNNRequest is the body of POST /v1/shard/knn: one MR3 k-NN query
// answered by the shard whose tile holds the query point, over its own
// partition plus the other tiles' candidates the coordinator gathered. The
// shard ranks against its local terrain, which in the default full-halo
// tiling is the complete surface.
//
// The first call carries every other tile's step-1 candidates (its k
// nearest by planar distance) and Complete. The shard answers when its
// step-2 radius lies below Complete; otherwise it returns that radius, and
// the coordinator calls again with Radius set and Candidates holding the
// other tiles' objects within it: steps 3 and 4 only.
type ShardKNNRequest struct {
	X          float64     `json:"x" api:"v1"`
	Y          float64     `json:"y" api:"v1"`
	K          int         `json:"k" api:"v1"`
	Sched      int         `json:"sched,omitempty" api:"v1"`
	Options    *Options    `json:"options,omitempty" api:"v1"`
	Candidates []Candidate `json:"candidates" api:"v1"`
	// Complete is the planar radius below which Candidates hold every
	// object of the other tiles: the smallest k-th planar distance among
	// the tiles that returned k candidates, "+Inf" when none did. Zero (or
	// absent) never settles in one call.
	Complete Float `json:"complete" api:"v1"`
	// Radius, when present, resumes an unsettled query at this step-3
	// radius.
	Radius  *float64 `json:"radius,omitempty" api:"v1"`
	Timeout Duration `json:"timeout,omitempty" api:"v1"`
}

// ShardEARequest is the body of POST /v1/shard/ea: the Enhanced
// Approximation benchmark over this shard's partition. The shard clamps k
// to its live object count — a shard owning fewer than k objects returns
// them all, and the coordinator merges per-shard top-k lists.
type ShardEARequest struct {
	X       float64  `json:"x" api:"v1"`
	Y       float64  `json:"y" api:"v1"`
	K       int      `json:"k" api:"v1"`
	Timeout Duration `json:"timeout,omitempty" api:"v1"`
}

// ShardRangeRequest is the body of POST /v1/shard/range: the surface range
// query over this shard's partition (per-candidate bounds are independent
// of the candidate set, so the global answer is the concatenation of
// per-shard answers).
type ShardRangeRequest struct {
	X       float64  `json:"x" api:"v1"`
	Y       float64  `json:"y" api:"v1"`
	Radius  float64  `json:"radius" api:"v1"`
	Sched   int      `json:"sched,omitempty" api:"v1"`
	Options *Options `json:"options,omitempty" api:"v1"`
	Timeout Duration `json:"timeout,omitempty" api:"v1"`
}

// ShardResult is the body of the ranking shard responses: the neighbours
// plus the epoch the shard's store stood at.
type ShardResult struct {
	Epoch     uint64     `json:"epoch" api:"v1"`
	Neighbors []Neighbor `json:"neighbors" api:"v1"`
	Cost      Cost       `json:"cost" api:"v1"`
	// Radius is set only by a k-NN call that did not settle: its step-3
	// radius, at which the coordinator resumes (see ShardKNNRequest).
	Radius *float64 `json:"radius,omitempty" api:"v1"`
}

// ShardObjectsRequest is the body of POST /v1/shard/objects: one logical
// update, assigned epoch Epoch by the coordinator, replayed to this shard.
// Objects are the upserts this shard now owns; DeleteIDs are removals
// (including objects that moved to another shard's tile). The shard applies
// deletes then upserts in one atomic publication at exactly epoch Epoch —
// and publishes even when it owns none of the touched objects, so every
// shard's epoch advances in lockstep (see objstore.ApplyAt).
type ShardObjectsRequest struct {
	Epoch     uint64         `json:"epoch" api:"v1"`
	Objects   []UpsertObject `json:"objects,omitempty" api:"v1"`
	DeleteIDs []int64        `json:"delete_ids,omitempty" api:"v1"`
}

// ShardObjectsResponse reports one applied logical update: the epoch the
// shard now stands at and how many objects the batch touched here.
type ShardObjectsResponse struct {
	Epoch   uint64 `json:"epoch" api:"v1"`
	Applied int    `json:"applied" api:"v1"`
}
