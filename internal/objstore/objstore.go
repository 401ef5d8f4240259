// Package objstore is the versioned dynamic object store: the object table
// and its 2-D R-tree (the paper's Dxy), made updatable under live query
// traffic without a rebuild or a stop-the-world.
//
// Visibility is epoch-based MVCC. Upsert, Delete and ApplyAt (a
// coordinator's replay) are one writer: each is a batch of deletions then
// upserts that publishes a new immutable Epoch (a monotonically increasing
// uint64 version): a copy-on-write delta layer — upserted objects plus a
// tombstone set over a bulk-packed immutable base — with its own small
// R-tree overlay. A local write that touches nothing publishes nothing; a
// replay publishes exactly the epoch it names. Readers Pin the
// current epoch once per query and see exactly that version for the whole
// query, no matter how many updates commit meanwhile. When the delta grows
// past the compaction threshold, the next update folds everything into a
// fresh bulk-packed base, so read amplification stays bounded.
//
// Retired epochs (those superseded by a newer one) are reclaimed as soon as
// their last pin is released — plain reference counting under the store
// mutex, held only for pointer-sized critical sections. Writers never wait
// for readers; readers never block each other.
//
// Every epoch answers KNNInto/WithinDistInto the same way: search the base
// R-tree, drop what the tombstones suppress, add what the overlay holds. On
// a quiesced epoch (empty delta, no tombstones) the last two steps do
// nothing, which makes a store with zero pending updates bit-identical —
// results, node-visit counts and therefore Cost.Pages() — to the static
// SetObjects path this package replaced (pinned by the golden test in
// internal/core).
package objstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"surfknn/internal/geom"
	"surfknn/internal/index"
	"surfknn/internal/obs"
	"surfknn/internal/workload"
)

// DefaultCompactThreshold is the delta size (upserted objects + tombstones)
// at which the next update folds the delta into a new bulk-packed base.
const DefaultCompactThreshold = 256

// baseTable is the immutable bulk-packed layer of an epoch: the object
// slice, its ID lookup and the STR-packed R-tree, built exactly the way the
// legacy static path built them (items in slice order) so a quiesced store
// reproduces its tree shape bit for bit.
type baseTable struct {
	objects []workload.Object
	byID    map[int64]workload.Object
	tree    *index.RTree
}

// newBaseTable wraps objs with its ID lookup and tree, bulk-packing the tree
// when none is supplied.
func newBaseTable(objs []workload.Object, tree *index.RTree) *baseTable {
	if tree == nil {
		tree = BulkIndex(objs)
	}
	b := &baseTable{objects: objs, byID: make(map[int64]workload.Object, len(objs)), tree: tree}
	for _, o := range objs {
		b.byID[o.ID] = o
	}
	return b
}

// BulkIndex bulk-packs a Dxy R-tree over the objects' (x,y) projections, one
// item per object in slice order — the one place an object becomes an index
// item, so every tree over the same table has the same shape.
func BulkIndex(objs []workload.Object) *index.RTree {
	items := make([]index.Item, len(objs))
	for i, o := range objs {
		items[i] = index.Item{P: o.Point.XY(), ID: o.ID}
	}
	return index.Bulk(items)
}

// Epoch is one immutable version of the object set. Obtain one with
// Store.Pin (guaranteeing it stays live until Release) or Store.Current
// (an unpinned peek). All read methods are safe for concurrent use; the
// structures are never mutated after publication.
//
// Invariants: dead holds the base IDs this epoch suppresses (deleted or
// shadowed by an upsert); delta holds the objects added or replaced since
// the base was packed, disjoint from the surviving base IDs. The live set
// is (base − dead) ∪ delta.
type Epoch struct {
	store *Store
	seq   uint64
	base  *baseTable

	delta     []workload.Object
	deltaByID map[int64]int // object ID → index into delta
	dead      map[int64]struct{}
	overlay   *index.RTree // bulk-packed over delta; nil when delta is empty

	// Pin bookkeeping, guarded by store.mu.
	refs    int64
	retired bool

	tableOnce sync.Once
	table     []workload.Object
}

// Seq returns the epoch number.
func (e *Epoch) Seq() uint64 { return e.seq }

// quiesced reports whether this epoch has no pending delta, i.e. the base
// layer alone is the whole truth.
func (e *Epoch) quiesced() bool { return len(e.delta) == 0 && len(e.dead) == 0 }

// Len returns the number of live objects in this epoch.
func (e *Epoch) Len() int { return len(e.base.objects) - len(e.dead) + len(e.delta) }

// Object resolves a live object by ID.
func (e *Epoch) Object(id int64) (workload.Object, bool) {
	if i, ok := e.deltaByID[id]; ok {
		return e.delta[i], true
	}
	if _, gone := e.dead[id]; gone {
		return workload.Object{}, false
	}
	o, ok := e.base.byID[id]
	return o, ok
}

// Table returns this epoch's object table: surviving base objects in base
// order followed by the delta in application order. The slice is shared and
// must not be modified (the sklint objstore-write rule enforces this across
// the module); it is materialised lazily and cached.
func (e *Epoch) Table() []workload.Object {
	if e.quiesced() {
		return e.base.objects
	}
	e.tableOnce.Do(func() {
		out := make([]workload.Object, 0, e.Len())
		for _, o := range e.base.objects {
			if _, gone := e.dead[o.ID]; !gone {
				out = append(out, o)
			}
		}
		out = append(out, e.delta...)
		e.table = out
	})
	return e.table
}

// alive is the base-tree filter of an epoch with tombstones.
func (e *Epoch) alive(it index.Item) bool {
	_, gone := e.dead[it.ID]
	return !gone
}

// KNNInto appends the k live objects nearest to q, in ascending 2-D
// distance order, to dst, charging R-tree node visits to visits. The search
// runs entirely on the caller's buffers, whatever the epoch carries (a zero
// Scratch and a nil dst is the allocating call). The base search skips
// tombstoned items at discovery time, so it still yields k live base
// candidates; the overlay's k nearest are then merged in by distance, the
// base winning exact ties. A quiesced epoch has neither tombstones nor
// overlay, so the base search is the whole answer.
func (e *Epoch) KNNInto(q geom.Vec2, k int, visits *int64, sc *index.Scratch, dst []index.Item) []index.Item {
	var keep func(index.Item) bool
	if len(e.dead) > 0 {
		keep = e.alive
	}
	lo := len(dst)
	dst = e.base.tree.KNNInto(q, k, visits, keep, sc, dst)
	if e.overlay == nil {
		return dst
	}
	mid := len(dst)
	dst = e.overlay.KNNInto(q, k, visits, nil, sc, dst)
	// dst[lo:mid] and dst[mid:] are both ascending: a stable insertion of the
	// overlay run into the base run is the merge. The overlay is smaller than
	// the compaction threshold, which bounds the shifting.
	for j := mid; j < len(dst); j++ {
		it := dst[j]
		d := it.P.Dist(q)
		i := j
		for ; i > lo && dst[i-1].P.Dist(q) > d; i-- {
			dst[i] = dst[i-1]
		}
		if i == j {
			break // already in place, and so is everything after it
		}
		dst[i] = it
	}
	if len(dst) > lo+k {
		dst = dst[:lo+k]
	}
	return dst
}

// WithinDistInto appends the live objects within Euclidean distance r of
// center to dst, charging node visits to visits: the base tree's hits minus
// the tombstoned ones, then the overlay's.
func (e *Epoch) WithinDistInto(center geom.Vec2, r float64, visits *int64, dst []index.Item) []index.Item {
	lo := len(dst)
	dst = e.base.tree.WithinDistInto(center, r, visits, dst)
	if len(e.dead) > 0 {
		live := dst[:lo]
		for _, it := range dst[lo:] {
			if e.alive(it) {
				live = append(live, it)
			}
		}
		dst = live
	}
	if e.overlay != nil {
		dst = e.overlay.WithinDistInto(center, r, visits, dst)
	}
	return dst
}

// IndexFlat returns the flat R-tree buffers over exactly this epoch's live
// object set, packing a fresh tree when a delta is pending. Restoring with
// NewAtWithIndex(Table(), Seq(), tree) for the tree index.FromFlat makes of
// them reproduces NewAt(Table(), Seq()) bit for bit, because both pack the
// same items in table order.
func (e *Epoch) IndexFlat() index.Flat {
	if e.quiesced() {
		return e.base.tree.Flatten()
	}
	return BulkIndex(e.Table()).Flatten()
}

// Release drops one pin. Once a retired epoch's last pin is released it is
// reclaimed (counted, removed from the live set); releasing more pins than
// were taken is a caller bug and panics.
func (e *Epoch) Release() {
	if e == nil {
		return
	}
	s := e.store
	s.mu.Lock()
	e.refs--
	if e.refs < 0 {
		s.mu.Unlock()
		panic(fmt.Sprintf("objstore: epoch %d released more times than pinned", e.seq))
	}
	if e.refs == 0 && e.retired {
		s.reclaimLocked(e)
	}
	s.mu.Unlock()
}

// UpdateEvent describes one published epoch to subscribed listeners: the
// epoch transition and the planar footprint of every touched object, which
// is what lets a continuous-query monitor invalidate only the standing
// queries whose search region the update could actually affect.
//
// IDs and Points are parallel. An upsert of a new ID contributes its new
// position; a delete its old one; an upsert that moved an existing object
// contributes BOTH positions (two entries, same ID) — an object leaving a
// search region changes that region's answer just as surely as one entering
// it.
type UpdateEvent struct {
	Prev   uint64 // epoch superseded by this update
	Epoch  uint64 // epoch published by this update
	IDs    []int64
	Points []geom.Vec2
}

// Store is the versioned object store. Create with New or NewAt; one Store
// serves any number of concurrent readers (Pin/Current) and writers
// (Upsert/Delete/ApplyAt). Writers serialise on an internal mutex; readers
// only touch it for the pointer-sized pin/release critical sections.
type Store struct {
	mu      sync.Mutex
	cur     atomic.Pointer[Epoch]
	compact int
	live    int           // epochs published and not yet reclaimed
	reg     *obs.Registry // setup-step field, like TerrainDB.reg; nil = uninstrumented

	// Update listeners. notifyMu serialises writers across the publish +
	// notify sequence so events are delivered in epoch order; it is acquired
	// BEFORE mu and held across the listener calls, which therefore run
	// without mu — a listener may Pin, query and Release freely, but must
	// not call back into the store's writers.
	notifyMu sync.Mutex
	subsMu   sync.Mutex
	subs     map[int]func(UpdateEvent)
	nextSub  int
}

// New returns an empty store at epoch 0.
func New() *Store { return NewAt(nil, 0) }

// NewAt returns a store whose initial version holds objs at the given epoch
// number — how a snapshot restore resumes at the epoch it was saved at.
func NewAt(objs []workload.Object, epoch uint64) *Store {
	return NewAtWithIndex(objs, epoch, nil)
}

// NewAtWithIndex is NewAt with the base R-tree supplied pre-packed — the
// snapshot-restore path: a v4 snapshot stores the packed tree verbatim
// (index.FromFlat adopts it), so loading skips the STR bulk pack entirely.
// The tree must index exactly objs (see Epoch.IndexFlat); a nil tree is
// bulk-packed, which is NewAt.
func NewAtWithIndex(objs []workload.Object, epoch uint64, tree *index.RTree) *Store {
	s := &Store{compact: DefaultCompactThreshold, live: 1}
	s.cur.Store(&Epoch{store: s, seq: epoch, base: newBaseTable(objs, tree)})
	return s
}

// SetCompactThreshold tunes the delta size that triggers folding into a new
// base (default DefaultCompactThreshold). A setup/test knob: call it before
// updates start flowing.
func (s *Store) SetCompactThreshold(n int) {
	if n < 1 {
		n = 1
	}
	s.mu.Lock()
	s.compact = n
	s.mu.Unlock()
}

// Instrument attaches an observability registry: update/epoch counters, the
// epoch gauge and the batch-size histogram. A setup step, same contract as
// TerrainDB.Instrument; nil detaches.
func (s *Store) Instrument(reg *obs.Registry) {
	s.mu.Lock()
	s.reg = reg
	cur := s.cur.Load()
	s.mu.Unlock()
	if reg != nil {
		reg.Epoch.Set(int64(cur.seq))
	}
}

// Current returns the latest published epoch without pinning it — a
// read-only peek for metadata (healthz, logs). The epoch is immutable, so
// reading through it is always safe; only code that must see one consistent
// version across several reads needs Pin.
func (s *Store) Current() *Epoch { return s.cur.Load() }

// Epoch returns the latest published epoch number.
func (s *Store) Epoch() uint64 { return s.cur.Load().seq }

// Pin returns the current epoch with a reference held: the epoch stays in
// the live set until the matching Release, no matter how many updates
// supersede it meanwhile.
func (s *Store) Pin() *Epoch {
	s.mu.Lock()
	e := s.cur.Load()
	e.refs++
	s.mu.Unlock()
	return e
}

// LiveEpochs returns how many epochs are published but not yet reclaimed
// (always at least 1 — the current epoch). A quiesced store with all pins
// released reports exactly 1.
func (s *Store) LiveEpochs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.live
}

// Subscribe registers fn to be called after every published epoch, with the
// event describing what changed. fn runs on the writer's goroutine, after
// the store mutex is released but while the writer sequence lock is held:
// events arrive in strict epoch order, fn may pin and query the store, but
// it must not call the store's writers (Upsert/Delete/ApplyAt) or it
// deadlocks. The returned cancel deregisters fn; after cancel returns, fn
// is never called again.
func (s *Store) Subscribe(fn func(UpdateEvent)) (cancel func()) {
	s.subsMu.Lock()
	if s.subs == nil {
		s.subs = make(map[int]func(UpdateEvent))
	}
	id := s.nextSub
	s.nextSub++
	s.subs[id] = fn
	s.subsMu.Unlock()
	return func() {
		s.subsMu.Lock()
		delete(s.subs, id)
		s.subsMu.Unlock()
	}
}

// notify delivers one published event to every listener. Caller holds
// notifyMu (ordering) but not mu (listeners may query the store).
func (s *Store) notify(ev UpdateEvent) {
	s.subsMu.Lock()
	fns := make([]func(UpdateEvent), 0, len(s.subs))
	for _, fn := range s.subs {
		fns = append(fns, fn)
	}
	s.subsMu.Unlock()
	for _, fn := range fns {
		fn(ev)
	}
}

// touch appends one touched object to the event being assembled: for an ID
// already live it records the old position too, so a moved object
// invalidates both the region it left and the region it entered.
func (ev *UpdateEvent) touch(cur *Epoch, o workload.Object) {
	if old, ok := cur.Object(o.ID); ok {
		ev.IDs = append(ev.IDs, o.ID)
		ev.Points = append(ev.Points, old.Point.XY())
	}
	ev.IDs = append(ev.IDs, o.ID)
	ev.Points = append(ev.Points, o.Point.XY())
}

// Upsert installs objs — inserting new IDs, replacing existing ones, the
// last occurrence of a repeated ID winning — and publishes the new epoch,
// returning its number. An empty batch is a no-op returning the current
// epoch.
func (s *Store) Upsert(objs []workload.Object) uint64 {
	seq, _ := s.apply(objs, nil, 0)
	return seq
}

// Delete removes the given IDs, returning the resulting epoch and how many
// were actually live. IDs not present are ignored (idempotent); if nothing
// was removed no epoch is published.
func (s *Store) Delete(ids []int64) (uint64, int) {
	return s.apply(nil, ids, 0)
}

// ApplyAt applies one logical update — deletes first, then upserts — and
// publishes the result at exactly epoch `at`. This is the sharded-serving
// primitive: a coordinator assigns every logical update one epoch number and
// replays it to each shard, and because ApplyAt always publishes (even when
// the shard owns none of the touched objects) every shard's epoch advances in
// lockstep, so the merged X-Epoch equals the unsharded epoch. Replay is
// idempotent: an update at or below the current epoch (at == 0 included) is
// a no-op returning the current epoch number. Returns the published epoch
// and how many objects the batch actually touched on this shard.
func (s *Store) ApplyAt(upserts []workload.Object, deleteIDs []int64, at uint64) (uint64, int) {
	if at == 0 {
		return s.Epoch(), 0
	}
	return s.apply(upserts, deleteIDs, at)
}

// apply is the store's one writer: it copies the delta layers of the
// current epoch, applies deleteIDs and then upserts, and publishes the
// result with an event describing every touched object. The publish rule:
// a local write (at == 0) publishes the next epoch only if it touched
// something; a replay (at > 0) publishes exactly epoch at, even when it
// touched nothing, and is a no-op at or below the current epoch. Returns
// the resulting epoch and how many objects the batch touched.
func (s *Store) apply(upserts []workload.Object, deleteIDs []int64, at uint64) (uint64, int) {
	s.notifyMu.Lock()
	defer s.notifyMu.Unlock()
	s.mu.Lock()
	cur := s.cur.Load()
	if at != 0 && at <= cur.seq {
		s.mu.Unlock()
		return cur.seq, 0
	}
	ev := UpdateEvent{Prev: cur.seq}
	delta, deltaByID, dead := copyLayers(cur)
	applied := 0
	for _, id := range deleteIDs {
		if old, ok := cur.Object(id); ok {
			ev.IDs = append(ev.IDs, id)
			ev.Points = append(ev.Points, old.Point.XY())
		}
		if _, ok := deltaByID[id]; ok {
			delete(deltaByID, id)
			applied++
			continue
		}
		if _, inBase := cur.base.byID[id]; inBase {
			if _, gone := dead[id]; !gone {
				dead[id] = struct{}{}
				applied++
			}
		}
	}
	if len(deltaByID) != len(delta) {
		// Deletions removed delta entries: repack the survivors (deltaByID
		// now holds exactly them) in their application order.
		packed := make([]workload.Object, 0, len(deltaByID))
		for _, o := range delta {
			if i, ok := deltaByID[o.ID]; ok && delta[i].ID == o.ID {
				packed = append(packed, o)
			}
		}
		delta = packed
		for i, o := range delta {
			deltaByID[o.ID] = i
		}
	}
	for _, o := range upserts {
		ev.touch(cur, o)
		if i, ok := deltaByID[o.ID]; ok {
			delta[i] = o
		} else {
			if _, inBase := cur.base.byID[o.ID]; inBase {
				dead[o.ID] = struct{}{} // shadow the base entry
			}
			deltaByID[o.ID] = len(delta)
			delta = append(delta, o)
		}
		applied++
	}
	seq := at
	if at == 0 {
		if applied == 0 {
			s.mu.Unlock()
			return cur.seq, 0
		}
		seq = cur.seq + 1
	}
	s.publishLocked(cur, seq, delta, deltaByID, dead, applied)
	s.mu.Unlock()
	ev.Epoch = seq
	s.notify(ev)
	return seq, applied
}

// copyLayers clones the mutable delta layer of cur for copy-on-write.
func copyLayers(cur *Epoch) ([]workload.Object, map[int64]int, map[int64]struct{}) {
	delta := append([]workload.Object(nil), cur.delta...)
	deltaByID := make(map[int64]int, len(cur.deltaByID)+1)
	for id, i := range cur.deltaByID {
		deltaByID[id] = i
	}
	dead := make(map[int64]struct{}, len(cur.dead)+1)
	for id := range cur.dead {
		dead[id] = struct{}{}
	}
	return delta, deltaByID, dead
}

// publishLocked builds the next epoch from the prepared layers at the given
// sequence number, compacting into a fresh base when the delta has outgrown
// the threshold, publishes it and retires cur. Caller holds s.mu.
func (s *Store) publishLocked(cur *Epoch, seq uint64, delta []workload.Object, deltaByID map[int64]int, dead map[int64]struct{}, applied int) {
	next := &Epoch{store: s, seq: seq}
	if len(delta)+len(dead) >= s.compact {
		// Fold everything into a new bulk-packed base: surviving base
		// objects in base order, then the delta in application order.
		merged := make([]workload.Object, 0, len(cur.base.objects)-len(dead)+len(delta))
		for _, o := range cur.base.objects {
			if _, gone := dead[o.ID]; !gone {
				merged = append(merged, o)
			}
		}
		merged = append(merged, delta...)
		next.base = newBaseTable(merged, nil)
	} else {
		next.base = cur.base
		next.delta = delta
		next.deltaByID = deltaByID
		next.dead = dead
		if len(delta) > 0 {
			next.overlay = BulkIndex(delta)
		}
	}
	s.cur.Store(next)
	s.live++
	cur.retired = true
	if cur.refs == 0 {
		s.reclaimLocked(cur)
	}
	if s.reg != nil {
		s.reg.UpdatesApplied.Add(int64(applied))
		s.reg.EpochsCreated.Add(1)
		s.reg.Epoch.Set(int64(next.seq))
		s.reg.UpdateBatch().Observe(int64(applied))
	}
}

// reclaimLocked retires e from the live set. In Go the garbage collector
// frees the memory; what reclamation buys is the bookkeeping proof that the
// reference-counting protocol converges (LiveEpochs returns to 1 once the
// store quiesces) — in a disk-backed deployment this is where pages would
// be returned. Caller holds s.mu.
func (s *Store) reclaimLocked(*Epoch) {
	s.live--
	if s.reg != nil {
		s.reg.EpochsReclaimed.Add(1)
	}
}
