package rtree

import (
	"math"

	"ksp/internal/geo"
)

// Browser performs incremental best-first nearest-neighbour search
// ("distance browsing", Hjaltason & Samet 1999): successive calls to Next
// yield the stored items in non-decreasing Euclidean distance from the
// query point. This is the GETNEXT primitive of the paper's BSP/SPP
// algorithms (Algorithm 1 line 6).
//
// NodeAccesses counts the R-tree nodes expanded, which the paper reports as
// "# of R-tree nodes accessed" (Figures 3(c), 4(c), 7(b)).
type Browser struct {
	t            *RTree
	q            geo.Point
	h            []nnEntry
	NodeAccesses int64
	onAccess     func() // copied from RTree.OnNodeAccess at construction
}

// nnEntry is a node or an item on the browser's heap: ref is a node ID
// with nodeRef set, or an item's position in leaf order.
type nnEntry struct {
	distSq float64
	ref    uint32
}

const nodeRef = 1 << 31

// NewBrowser starts an incremental nearest-neighbour scan from q.
func (t *RTree) NewBrowser(q geo.Point) *Browser {
	b := &Browser{t: t, q: q, onAccess: t.OnNodeAccess}
	if t.Len() > 0 {
		b.h = append(b.h, nnEntry{distSq: t.Bounds().MinDistSq(q), ref: t.Root() | nodeRef})
	}
	return b
}

// Next returns the next item in non-decreasing distance order along with
// its exact Euclidean distance. ok is false when the tree is exhausted.
func (b *Browser) Next() (it Item, dist float64, ok bool) {
	for len(b.h) > 0 {
		e := b.pop()
		if e.ref&nodeRef == 0 {
			return b.item(e.ref), math.Sqrt(e.distSq), true
		}
		b.expand(e.ref &^ nodeRef)
	}
	return Item{}, 0, false
}

// expand replaces a node entry with its children (or items) on the heap,
// counting the node access.
func (b *Browser) expand(n uint32) {
	b.NodeAccesses++
	if b.onAccess != nil {
		b.onAccess()
	}
	a := &b.t.a
	lo, hi := a.Off[n], a.Off[n+1]
	if b.t.IsLeaf(n) {
		for i := lo; i < hi; i++ {
			b.push(nnEntry{distSq: b.q.DistSq(a.Locs[i]), ref: i})
		}
	} else {
		base := a.Off[a.Leaves]
		for _, ch := range a.Children[lo-base : hi-base] {
			b.push(nnEntry{distSq: a.Rects[ch].MinDistSq(b.q), ref: ch | nodeRef})
		}
	}
}

// item returns the item at position i in leaf order.
func (b *Browser) item(i uint32) Item { return Item{ID: b.t.a.IDs[i], Loc: b.t.a.Locs[i]} }

// The sift helpers below replicate container/heap's algorithm exactly
// (including its child-selection tie-break), so the pop order — and with
// it every distance-tie resolution the engine observes — is bit-for-bit
// what the container/heap-based implementation produced, without the
// interface boxing.

func (b *Browser) push(e nnEntry) {
	b.h = append(b.h, e)
	b.up(len(b.h) - 1)
}

func (b *Browser) pop() nnEntry {
	n := len(b.h) - 1
	b.h[0], b.h[n] = b.h[n], b.h[0]
	e := b.h[n]
	b.h = b.h[:n]
	if n > 0 {
		b.down(0)
	}
	return e
}

func (b *Browser) up(j int) {
	h := b.h
	for {
		i := (j - 1) / 2 // parent
		if i == j || !(h[j].distSq < h[i].distSq) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (b *Browser) down(i0 int) {
	h := b.h
	n := len(h)
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].distSq < h[j1].distSq {
			j = j2 // = 2*i + 2  // right child
		}
		if !(h[j].distSq < h[i].distSq) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}
