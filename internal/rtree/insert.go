package rtree

import (
	"math"

	"ksp/internal/geo"
)

// Inserter builds an R-tree one item at a time by Guttman's insertion with
// quadratic split — the "R-tree (insert)" column of the paper's Table 5.
// Its nodes are linked by pointers while it grows; Tree numbers them and
// returns the flat tree.
type Inserter struct {
	root       *node
	maxEntries int
	minEntries int
	height     int
}

// node is a node of a tree under insertion. Leaf nodes carry items;
// internal nodes carry child nodes. rect is the MBR of everything below.
type node struct {
	leaf     bool
	rect     geo.Rect
	children []*node // internal nodes only
	items    []Item  // leaf nodes only
	parent   *node
	id       uint32 // assigned by Tree
}

// NewInserter returns an empty tree of node capacity maxEntries (minimum
// fill is maxEntries/2, per Guttman). maxEntries < 4 is raised to 4.
func NewInserter(maxEntries int) *Inserter {
	maxEntries = max(maxEntries, 4)
	return &Inserter{root: newNode(true), maxEntries: maxEntries, minEntries: maxEntries / 2, height: 1}
}

func newNode(leaf bool) *node { return &node{leaf: leaf, rect: geo.EmptyRect()} }

// Tree returns the flat tree of the items inserted so far: the leaves
// numbered first, in depth-first order, then the internal nodes in
// post-order, so that every parent follows its children and the root
// comes last.
func (t *Inserter) Tree() *RTree {
	var leaves, inner []*node
	var walk func(n *node)
	walk = func(n *node) {
		if n.leaf {
			leaves = append(leaves, n)
			return
		}
		for _, ch := range n.children {
			walk(ch)
		}
		inner = append(inner, n)
	}
	walk(t.root)
	out := &RTree{maxEntries: t.maxEntries, height: t.height}
	a := &out.a
	a.Leaves = len(leaves)
	for i, n := range append(leaves, inner...) {
		n.id = uint32(i)
	}
	for _, n := range leaves {
		for _, it := range n.items {
			a.IDs, a.Locs = append(a.IDs, it.ID), append(a.Locs, it.Loc)
		}
		out.addNode(n.rect, len(a.IDs))
	}
	for _, n := range inner {
		for _, ch := range n.children {
			a.Children = append(a.Children, ch.id)
		}
		out.addNode(n.rect, len(a.IDs)+len(a.Children))
	}
	return out
}

// Insert adds an item to the tree (Guttman insertion with quadratic split).
func (t *Inserter) Insert(it Item) {
	leaf := t.chooseLeaf(t.root, it.Loc)
	leaf.items = append(leaf.items, it)
	leaf.rect = leaf.rect.ExpandPoint(it.Loc)
	if len(leaf.items) > t.maxEntries {
		t.splitAndPropagate(leaf)
	} else {
		t.adjustRects(leaf.parent)
	}
}

// chooseLeaf descends from n picking the child needing least enlargement to
// include p, breaking ties by smaller area.
func (t *Inserter) chooseLeaf(n *node, p geo.Point) *node {
	for !n.leaf {
		target := geo.RectFromPoint(p)
		best := n.children[0]
		bestEnl := best.rect.Enlargement(target)
		bestArea := best.rect.Area()
		for _, ch := range n.children[1:] {
			enl := ch.rect.Enlargement(target)
			area := ch.rect.Area()
			if enl < bestEnl || (enl == bestEnl && area < bestArea) {
				best, bestEnl, bestArea = ch, enl, area
			}
		}
		n = best
	}
	return n
}

// adjustRects recomputes MBRs from n up to the root.
func (t *Inserter) adjustRects(n *node) {
	for n != nil {
		n.rect = computeRect(n)
		n = n.parent
	}
}

func computeRect(n *node) geo.Rect {
	r := geo.EmptyRect()
	if n.leaf {
		for _, it := range n.items {
			r = r.ExpandPoint(it.Loc)
		}
	} else {
		for _, ch := range n.children {
			r = r.Union(ch.rect)
		}
	}
	return r
}

// splitAndPropagate splits an overfull node and walks overflow up the tree.
func (t *Inserter) splitAndPropagate(n *node) {
	for {
		sibling := t.split(n)
		parent := n.parent
		if parent == nil {
			// Root split: grow the tree.
			newRoot := newNode(false)
			newRoot.children = append(newRoot.children, n, sibling)
			n.parent = newRoot
			sibling.parent = newRoot
			newRoot.rect = n.rect.Union(sibling.rect)
			t.root = newRoot
			t.height++
			return
		}
		sibling.parent = parent
		parent.children = append(parent.children, sibling)
		parent.rect = computeRect(parent)
		if len(parent.children) <= t.maxEntries {
			t.adjustRects(parent.parent)
			return
		}
		n = parent
	}
}

// split performs Guttman's quadratic split of n, returning the new sibling;
// n keeps one group, the sibling receives the other.
func (t *Inserter) split(n *node) *node {
	sib := newNode(n.leaf)
	if n.leaf {
		a, b := quadraticSplitItems(n.items, t.minEntries)
		n.items, sib.items = a, b
	} else {
		a, b := quadraticSplitChildren(n.children, t.minEntries)
		n.children, sib.children = a, b
		for _, ch := range sib.children {
			ch.parent = sib
		}
	}
	n.rect = computeRect(n)
	sib.rect = computeRect(sib)
	return sib
}

// splitEntry abstracts the bounding rect of either an item or a child node
// during the split.
type splitEntry struct {
	rect geo.Rect
	idx  int
}

func quadraticSplitItems(items []Item, minFill int) (a, b []Item) {
	ents := make([]splitEntry, len(items))
	for i, it := range items {
		ents[i] = splitEntry{rect: geo.RectFromPoint(it.Loc), idx: i}
	}
	ga, gb := quadraticSplit(ents, minFill)
	for _, i := range ga {
		a = append(a, items[i])
	}
	for _, i := range gb {
		b = append(b, items[i])
	}
	return a, b
}

func quadraticSplitChildren(children []*node, minFill int) (a, b []*node) {
	ents := make([]splitEntry, len(children))
	for i, ch := range children {
		ents[i] = splitEntry{rect: ch.rect, idx: i}
	}
	ga, gb := quadraticSplit(ents, minFill)
	for _, i := range ga {
		a = append(a, children[i])
	}
	for _, i := range gb {
		b = append(b, children[i])
	}
	return a, b
}

// quadraticSplit partitions entries into two groups per Guttman's quadratic
// algorithm: pick the pair wasting the most area as seeds, then repeatedly
// assign the entry with the greatest preference for one group.
func quadraticSplit(ents []splitEntry, minFill int) (ga, gb []int) {
	// Seed selection.
	s1, s2 := 0, 1
	worst := math.Inf(-1)
	for i := 0; i < len(ents); i++ {
		for j := i + 1; j < len(ents); j++ {
			d := ents[i].rect.Union(ents[j].rect).Area() - ents[i].rect.Area() - ents[j].rect.Area()
			if d > worst {
				worst, s1, s2 = d, i, j
			}
		}
	}
	ra, rb := ents[s1].rect, ents[s2].rect
	ga = append(ga, ents[s1].idx)
	gb = append(gb, ents[s2].idx)
	assigned := make([]bool, len(ents))
	assigned[s1], assigned[s2] = true, true
	remaining := len(ents) - 2

	for remaining > 0 {
		// If one group must take everything to reach min fill, do so.
		if len(ga)+remaining == minFill {
			for i, e := range ents {
				if !assigned[i] {
					ga = append(ga, e.idx)
					ra = ra.Union(e.rect)
					assigned[i] = true
				}
			}
			break
		}
		if len(gb)+remaining == minFill {
			for i, e := range ents {
				if !assigned[i] {
					gb = append(gb, e.idx)
					rb = rb.Union(e.rect)
					assigned[i] = true
				}
			}
			break
		}
		// PickNext: maximize |d1 - d2|.
		next, bestDiff := -1, math.Inf(-1)
		var nd1, nd2 float64
		for i, e := range ents {
			if assigned[i] {
				continue
			}
			d1 := ra.Enlargement(e.rect)
			d2 := rb.Enlargement(e.rect)
			if diff := math.Abs(d1 - d2); diff > bestDiff {
				bestDiff, next, nd1, nd2 = diff, i, d1, d2
			}
		}
		e := ents[next]
		assigned[next] = true
		remaining--
		// Resolve ties by smaller area, then fewer entries.
		toA := nd1 < nd2
		if nd1 == nd2 {
			if ra.Area() != rb.Area() {
				toA = ra.Area() < rb.Area()
			} else {
				toA = len(ga) <= len(gb)
			}
		}
		if toA {
			ga = append(ga, e.idx)
			ra = ra.Union(e.rect)
		} else {
			gb = append(gb, e.idx)
			rb = rb.Union(e.rect)
		}
	}
	return ga, gb
}
