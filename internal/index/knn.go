package index

import "surfknn/internal/geom"

// knnEntry is a best-first queue entry: either a node (by flat index) or a
// settled item.
type knnEntry struct {
	dist float64
	ni   int32
	leaf bool
	item Item
}

// Scratch holds the reusable buffers of the best-first searches. A zero
// Scratch is ready to use; after a few queries its heap slab reaches the
// tree's high-water mark and warm searches stop allocating. Like the tree's
// visit counters it is owned by one goroutine (core.Session keeps one per
// session).
type Scratch struct {
	kh []knnEntry
}

// The heap code below replicates container/heap's sift loops verbatim
// (strict-less comparisons, identical swap order) on a concrete slice. The
// interface-free rewrite is not only about boxing allocations: equal-
// distance entries pop in an order determined by these exact sift paths,
// and the golden tests pin visit counts that depend on that order.

func khPush(h []knnEntry, e knnEntry) []knnEntry {
	h = append(h, e)
	j := len(h) - 1
	for {
		i := (j - 1) / 2
		if i == j || !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func khPop(h []knnEntry) ([]knnEntry, knnEntry) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e := h[n]
	return h[:n], e
}

// KNNInto appends the k items nearest to q, in ascending distance order
// (fewer when the tree holds fewer than k kept items), to dst, using the
// classic best-first traversal [Hjaltason & Samet]. Node visits are charged
// to visits (nil to skip counting).
//
// keep, when non-nil, is applied as leaf items are discovered: rejected
// items never enter the candidate queue, so the traversal yields the k
// nearest *kept* items rather than a post-filtered (and possibly short)
// prefix. With a nil or all-true keep the control flow — and so the visit
// count — is identical, which is what lets an objstore epoch that suppresses
// nothing reproduce the static path's page counts.
//
// The search runs on caller-owned scratch: with sc and dst at their
// high-water capacity it performs no allocation; a zero Scratch and a nil
// dst is the allocating call.
func (t *RTree) KNNInto(q geom.Vec2, k int, visits *int64, keep func(Item) bool, sc *Scratch, dst []Item) []Item {
	if k <= 0 || len(t.items) == 0 {
		return dst
	}
	pq := sc.kh[:0]
	pq = khPush(pq, knnEntry{dist: t.mbr[0].DistToPoint(q), ni: 0})
	found := 0
	for len(pq) > 0 && found < k {
		var e knnEntry
		pq, e = khPop(pq)
		if e.leaf {
			dst = pushItem(dst, e.item)
			found++
			continue
		}
		visit(visits)
		lo, n := t.start[e.ni], t.count[e.ni]
		if t.leaf[e.ni] {
			for _, it := range t.items[lo : lo+n] {
				if keep == nil || keep(it) {
					pq = khPush(pq, knnEntry{dist: it.P.Dist(q), item: it, leaf: true})
				}
			}
			continue
		}
		for c := lo; c < lo+n; c++ {
			pq = khPush(pq, knnEntry{dist: t.mbr[c].DistToPoint(q), ni: c})
		}
	}
	sc.kh = pq[:0]
	return dst
}
