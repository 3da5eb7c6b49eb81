package rtree

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ksp/internal/geo"
)

// refNode is a node of the pointer-linked STR tree that Bulk built before
// the tree became flat arrays: the reference the node numbering is held
// to, since the α node file, SP's tie-break and the browser's push order
// depend on it.
type refNode struct {
	id       uint32
	rect     geo.Rect
	children []*refNode
	items    []Item
}

// referenceBulk is that build: leaves numbered as STR tiles them, then
// each level's parents as packed, every level sorted by node centres.
func referenceBulk(items []Item, m int) *refNode {
	var next uint32
	newNode := func() *refNode {
		n := &refNode{id: next, rect: geo.EmptyRect()}
		next++
		return n
	}
	if len(items) == 0 {
		return newNode()
	}
	strSort(items, m)
	var level []*refNode
	slabSize := strSlabs(len(items), m) * m
	for start := 0; start < len(items); start += slabSize {
		slab := items[start:min(start+slabSize, len(items))]
		for ls := 0; ls < len(slab); ls += m {
			n := newNode()
			n.items = slab[ls:min(ls+m, len(slab))]
			for _, it := range n.items {
				n.rect = n.rect.ExpandPoint(it.Loc)
			}
			level = append(level, n)
		}
	}
	for len(level) > 1 {
		s := int(math.Ceil(math.Sqrt(float64((len(level) + m - 1) / m))))
		sort.Slice(level, func(i, j int) bool { return level[i].rect.Center().X < level[j].rect.Center().X })
		var parents []*refNode
		for start := 0; start < len(level); start += s * m {
			slab := level[start:min(start+s*m, len(level))]
			sort.Slice(slab, func(i, j int) bool { return slab[i].rect.Center().Y < slab[j].rect.Center().Y })
			for ls := 0; ls < len(slab); ls += m {
				n := newNode()
				n.children = slab[ls:min(ls+m, len(slab))]
				for _, ch := range n.children {
					n.rect = n.rect.Union(ch.rect)
				}
				parents = append(parents, n)
			}
		}
		level = parents
	}
	return level[0]
}

// Bulk numbers every node, orders every child list and every leaf's items
// exactly as the pointer-linked build did, with bit-identical rectangles.
func TestBulkMatchesPointerReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 7, 32, 33, 500, 7080} {
		for _, m := range []int{4, 9, DefaultMaxEntries} {
			items := randomItems(rng, n)
			for i := range items {
				if i%5 == 0 { // ties on both axes
					items[i].Loc = geo.Point{X: float64(i % 7), Y: float64(i % 3)}
				}
			}
			tree := Bulk(slices.Clone(items), m)
			ref := referenceBulk(slices.Clone(items), m)
			if err := tree.Validate(); err != nil {
				t.Fatalf("n=%d m=%d: %v", n, m, err)
			}
			if tree.Root() != ref.id {
				t.Fatalf("n=%d m=%d: root %d, reference %d", n, m, tree.Root(), ref.id)
			}
			var walk func(r *refNode)
			walk = func(r *refNode) {
				if tree.Rect(r.id) != r.rect || tree.IsLeaf(r.id) != (r.children == nil) {
					t.Fatalf("n=%d m=%d: node %d differs from the reference", n, m, r.id)
				}
				if r.children == nil {
					ids, locs := tree.Leaf(r.id)
					for i, it := range r.items {
						if ids[i] != it.ID || locs[i] != it.Loc {
							t.Fatalf("n=%d m=%d: leaf %d item %d differs", n, m, r.id, i)
						}
					}
					if len(ids) != len(r.items) {
						t.Fatalf("n=%d m=%d: leaf %d holds %d items, reference %d", n, m, r.id, len(ids), len(r.items))
					}
					return
				}
				kids := tree.Children(r.id)
				if len(kids) != len(r.children) {
					t.Fatalf("n=%d m=%d: node %d has %d children, reference %d", n, m, r.id, len(kids), len(r.children))
				}
				for i, ch := range r.children {
					if kids[i] != ch.id {
						t.Fatalf("n=%d m=%d: node %d child %d is %d, reference %d", n, m, r.id, i, kids[i], ch.id)
					}
					walk(ch)
				}
			}
			walk(ref)
		}
	}
}

// FromArrays refuses arrays that break any rule check names, and serves
// what Bulk made.
func TestFromArraysChecks(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	good := Bulk(randomItems(rng, 300), 8).Arrays()
	if tr, err := FromArrays(good, 8); err != nil || tr.Len() != 300 || tr.Height() != 3 {
		t.Fatalf("FromArrays of a built tree: %v", err)
	}
	clone := func() Arrays {
		return Arrays{Rects: slices.Clone(good.Rects), Off: slices.Clone(good.Off), Children: slices.Clone(good.Children),
			IDs: slices.Clone(good.IDs), Locs: slices.Clone(good.Locs), Leaves: good.Leaves}
	}
	root := len(good.Rects) - 1
	rootKids := good.Off[root] - good.Off[good.Leaves]
	damage := map[string]func(a *Arrays){
		"no nodes":                        func(a *Arrays) { a.Rects, a.Off = nil, a.Off[:1] },
		"a leaf count beyond the nodes":   func(a *Arrays) { a.Leaves = len(a.Rects) + 1 },
		"no leaves":                       func(a *Arrays) { a.Leaves = 0 },
		"an offset table one short":       func(a *Arrays) { a.Off = a.Off[:len(a.Off)-1] },
		"descending offsets":              func(a *Arrays) { a.Off[1], a.Off[2] = a.Off[2], a.Off[1] },
		"items past the leaves' offsets":  func(a *Arrays) { a.IDs, a.Locs = append(a.IDs, 1), append(a.Locs, geo.Point{}) },
		"a child listed twice":            func(a *Arrays) { a.Children[rootKids] = a.Children[rootKids+1] },
		"a child above its parent":        func(a *Arrays) { a.Children[rootKids] = uint32(root) },
		"leaves at two depths":            func(a *Arrays) { a.Children[rootKids] = 0 },
		"a node over capacity":            func(a *Arrays) { a.Off[1], a.Off[2] = 9, 9 },
		"an empty leaf":                   func(a *Arrays) { a.Off[1] = 0 },
		"a leaf rectangle too large":      func(a *Arrays) { a.Rects[0].MaxX = math.Nextafter(a.Rects[0].MaxX, math.Inf(1)) },
		"a root rectangle too small":      func(a *Arrays) { a.Rects[root].MinY = math.Nextafter(a.Rects[root].MinY, 0) },
		"an item outside its leaf":        func(a *Arrays) { a.Locs[0].X = a.Rects[0].MaxX + 1 },
		"a NaN rectangle":                 func(a *Arrays) { a.Rects[root].MinX = math.NaN() },
		"an item ID without its location": func(a *Arrays) { a.Locs = a.Locs[1:] },
	}
	for name, hurt := range damage {
		a := clone()
		hurt(&a)
		if _, err := FromArrays(a, 8); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
