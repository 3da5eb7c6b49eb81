// Package rtree implements a static R-tree over 2-D points, built by STR
// bulk loading [Leutenegger et al., ICDE 1997] or by Guttman's
// quadratic-split insertion [Guttman, SIGMOD 1984], with incremental
// best-first nearest-neighbour browsing [Hjaltason & Samet, TODS 1999].
//
// The kSP algorithms (internal/core) use the tree in two ways: BSP/SPP
// consume places in ascending spatial distance through a Browser, while SP
// walks the nodes directly so it can order entries by α-bounds and prune
// whole subtrees (Pruning Rule 4 of the paper). Nodes are therefore
// addressed by ID within this module.
//
// A tree is a handful of flat arrays indexed by node ID (Arrays): Bulk
// fills them on the heap, and a snapshot stores them as they are and
// serves them in place once FromArrays has checked them.
package rtree

import (
	"fmt"

	"ksp/internal/geo"
)

// DefaultMaxEntries is the default node capacity M.
const DefaultMaxEntries = 32

// Item is a spatial object stored at the leaves: an opaque identifier
// (in kSP, the vertex ID of a place) at a point location.
type Item struct {
	ID  uint32
	Loc geo.Point
}

// Arrays are the arrays an RTree reads. Node IDs run from 0 to
// len(Rects)-1: the leaves first, then the internal nodes, each after
// its children, so the root is the last node. The entries of node n are
// Off[n] to Off[n+1]: for a leaf, its items, positions in IDs and Locs
// (the items in leaf order); for an internal node, its children,
// positions in Children shifted by Off[Leaves].
type Arrays struct {
	Rects    []geo.Rect // by node ID: the MBR of everything below
	Off      []uint32   // len(Rects)+1 entry offsets
	Children []uint32   // child node IDs of the internal nodes
	IDs      []uint32   // item IDs in leaf order
	Locs     []geo.Point
	Leaves   int // how many nodes are leaves
}

// RTree is a static R-tree over points. The zero value is not usable;
// construct with Bulk, an Inserter or FromArrays. A node is an ID, its
// position in the Arrays.
type RTree struct {
	a          Arrays
	height     int
	maxEntries int

	// OnNodeAccess, when non-nil, is invoked once per node expansion during
	// read traversals (Browser.Next, Search). It lets an observability layer
	// keep a live cumulative access counter without the tree depending on
	// it; per-query accounting stays on Browser.NodeAccesses. Set it before
	// concurrent use and make the callback safe for concurrent calls.
	OnNodeAccess func()
}

// OfPlaces bulk-loads a tree of DefaultMaxEntries over the given IDs,
// each at loc(id): the R-tree over a graph's places is
// OfPlaces(g.Places(), g.Loc).
func OfPlaces(ids []uint32, loc func(uint32) geo.Point) *RTree {
	items := make([]Item, len(ids))
	for i, id := range ids {
		items[i] = Item{ID: id, Loc: loc(id)}
	}
	return Bulk(items, DefaultMaxEntries)
}

// FromArrays serves a as a tree of node capacity maxEntries once it has
// checked everything a traversal relies on (check). The tree views a,
// which must not change while the tree is in use.
func FromArrays(a Arrays, maxEntries int) (*RTree, error) {
	h, err := check(a, maxEntries)
	if err != nil {
		return nil, err
	}
	return &RTree{a: a, height: h, maxEntries: maxEntries}, nil
}

// Arrays returns the arrays the tree reads. They must not be written to.
func (t *RTree) Arrays() Arrays { return t.a }

// Root returns the root's node ID.
func (t *RTree) Root() uint32 { return uint32(len(t.a.Rects) - 1) }

// Bounds returns the MBR of every item.
func (t *RTree) Bounds() geo.Rect { return t.a.Rects[t.Root()] }

// Rect returns node n's MBR.
func (t *RTree) Rect(n uint32) geo.Rect { return t.a.Rects[n] }

// IsLeaf reports whether node n is a leaf.
func (t *RTree) IsLeaf(n uint32) bool { return int(n) < t.a.Leaves }

// Children returns the child IDs of internal node n, in order.
func (t *RTree) Children(n uint32) []uint32 {
	base := t.a.Off[t.a.Leaves]
	return t.a.Children[t.a.Off[n]-base : t.a.Off[n+1]-base]
}

// Leaf returns the IDs and locations of the items of leaf n, in order.
func (t *RTree) Leaf(n uint32) (ids []uint32, locs []geo.Point) {
	lo, hi := t.a.Off[n], t.a.Off[n+1]
	return t.a.IDs[lo:hi], t.a.Locs[lo:hi]
}

// Len returns the number of items stored.
func (t *RTree) Len() int { return len(t.a.IDs) }

// Height returns the number of levels (a tree holding only a root leaf has
// height 1).
func (t *RTree) Height() int { return t.height }

// NumNodes returns the total number of nodes in the tree.
func (t *RTree) NumNodes() int { return len(t.a.Rects) }

// MemSize returns the in-memory footprint of the arrays in bytes, used
// by the Table 4 storage experiment.
func (t *RTree) MemSize() int64 {
	a := t.a
	return int64(32*len(a.Rects) + 4*(len(a.Off)+len(a.Children)+len(a.IDs)) + 16*len(a.Locs))
}

// Search appends to dst the IDs of the items whose location falls within
// r and returns the extended slice.
func (t *RTree) Search(r geo.Rect, dst []uint32) []uint32 {
	root := t.Root()
	if !t.a.Rects[root].Intersects(r) && t.Len() > 0 {
		return dst
	}
	var walk func(n uint32)
	walk = func(n uint32) {
		if t.OnNodeAccess != nil {
			t.OnNodeAccess()
		}
		if t.IsLeaf(n) {
			ids, locs := t.Leaf(n)
			for i, loc := range locs {
				if r.ContainsPoint(loc) {
					dst = append(dst, ids[i])
				}
			}
			return
		}
		for _, ch := range t.Children(n) {
			if t.a.Rects[ch].Intersects(r) {
				walk(ch)
			}
		}
	}
	walk(root)
	return dst
}

// Validate checks the tree's structural invariants (check) and returns
// an error describing the first violation.
func (t *RTree) Validate() error {
	_, err := check(t.a, t.maxEntries)
	return err
}

// check verifies what a traversal relies on and returns the height:
//   - the offsets start at 0, ascend, and end at the items and the
//     children, of which there are one fewer than nodes;
//   - every node but the root, the last, is the child of exactly one
//     node, whose ID is larger;
//   - the leaves, and only they, are the first Leaves nodes, and all
//     lie at one depth;
//   - every node has 1 to maxEntries entries, except the one empty leaf
//     of a tree without items;
//   - every rectangle is exactly the MBR of its node's entries.
func check(a Arrays, maxEntries int) (int, error) {
	nodes := len(a.Rects)
	switch {
	case nodes == 0:
		return 0, fmt.Errorf("rtree: no root")
	case nodes >= nodeRef || len(a.IDs) >= nodeRef:
		return 0, fmt.Errorf("rtree: %d nodes and %d items, more than a browser addresses", nodes, len(a.IDs))
	case a.Leaves < 1 || a.Leaves > nodes:
		return 0, fmt.Errorf("rtree: %d leaves among %d nodes", a.Leaves, nodes)
	case len(a.Off) != nodes+1 || a.Off[0] != 0:
		return 0, fmt.Errorf("rtree: %d offsets for %d nodes", len(a.Off), nodes)
	case len(a.Locs) != len(a.IDs):
		return 0, fmt.Errorf("rtree: %d item IDs, %d locations", len(a.IDs), len(a.Locs))
	case len(a.Children) != nodes-1:
		return 0, fmt.Errorf("rtree: %d children for %d nodes", len(a.Children), nodes)
	}
	for n := 0; n < nodes; n++ {
		if a.Off[n+1] < a.Off[n] {
			return 0, fmt.Errorf("rtree: offsets descend at node %d", n)
		}
	}
	if int(a.Off[a.Leaves]) != len(a.IDs) || int(a.Off[nodes])-len(a.IDs) != len(a.Children) {
		return 0, fmt.Errorf("rtree: offsets end at %d and %d, the arrays hold %d items and %d children",
			a.Off[a.Leaves], a.Off[nodes], len(a.IDs), len(a.Children))
	}
	const none = -1
	depth := make([]int, nodes)
	for n := range depth {
		depth[n] = none
	}
	depth[nodes-1] = 0
	leafDepth := none
	base := a.Off[a.Leaves]
	for n := nodes - 1; n >= 0; n-- {
		lo, hi := a.Off[n], a.Off[n+1]
		if k := int(hi - lo); (k < 1 || k > maxEntries) && !(nodes == 1 && k == 0) {
			return 0, fmt.Errorf("rtree: node %d has %d entries, the capacity is %d", n, k, maxEntries)
		}
		if depth[n] == none {
			return 0, fmt.Errorf("rtree: node %d is no node's child", n)
		}
		mbr := geo.EmptyRect()
		if n < a.Leaves {
			if leafDepth == none {
				leafDepth = depth[n]
			} else if depth[n] != leafDepth {
				return 0, fmt.Errorf("rtree: leaves at depths %d and %d", leafDepth, depth[n])
			}
			for _, p := range a.Locs[lo:hi] {
				mbr = mbr.ExpandPoint(p)
			}
		} else {
			for _, ch := range a.Children[lo-base : hi-base] {
				if int(ch) >= n {
					return 0, fmt.Errorf("rtree: node %d lists child %d, which does not precede it", n, ch)
				}
				if depth[ch] != none {
					return 0, fmt.Errorf("rtree: node %d lists child %d, which has another parent", n, ch)
				}
				depth[ch] = depth[n] + 1
				mbr = mbr.Union(a.Rects[ch])
			}
		}
		if a.Rects[n] != mbr {
			return 0, fmt.Errorf("rtree: node %d has rectangle %v, its entries span %v", n, a.Rects[n], mbr)
		}
	}
	return leafDepth + 1, nil
}
