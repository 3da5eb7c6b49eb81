package rtree

import (
	"math"
	"sort"

	"ksp/internal/geo"
)

// Bulk builds an R-tree over items using Sort-Tile-Recursive (STR)
// packing [Leutenegger, Edgington & Lopez, ICDE 1997]. The paper notes
// (Table 5 discussion) that bulk loading drastically reduces construction
// time compared to one-by-one insertion; both regimes are offered here
// (Inserter) and the Table 5 experiment measures them.
//
// Nodes are numbered as they are made: the leaves in tile order, then
// each level's parents in the order packNodes forms them, the root last.
// The numbering is deterministic, and the α node file is keyed by it.
//
// The input slice is reordered in place.
func Bulk(items []Item, maxEntries int) *RTree {
	if maxEntries < 4 {
		maxEntries = 4
	}
	t := &RTree{maxEntries: maxEntries, height: 1}
	a := &t.a
	if len(items) == 0 {
		a.Rects, a.Off, a.Leaves = []geo.Rect{geo.EmptyRect()}, []uint32{0, 0}, 1
		return t
	}
	level := t.packLeaves(items)
	for len(level) > 1 {
		level = t.packNodes(level)
		t.height++
	}
	return t
}

// STRSort reorders items in place into Sort-Tile-Recursive order with
// tile size runLength: items are sorted by X, cut into vertical slabs of
// S·runLength (S = ceil(sqrt(P)), P = number of tiles), and each slab is
// sorted by Y — exactly the tiling packLeaves applies with
// runLength = maxEntries. After the call, every contiguous run of
// runLength items forms one STR tile, so cutting the slice into equal
// contiguous chunks yields a spatially coherent partition (the shard
// partitioner's use).
func STRSort(items []Item, runLength int) {
	if runLength < 1 {
		runLength = 1
	}
	strSort(items, runLength)
}

// strSlabs returns S = ceil(sqrt(P)) for P = ceil(n/m) tiles.
func strSlabs(n, m int) int {
	p := (n + m - 1) / m
	return int(math.Ceil(math.Sqrt(float64(p))))
}

func strSort(items []Item, m int) {
	sort.Slice(items, func(i, j int) bool { return items[i].Loc.X < items[j].Loc.X })
	slabSize := strSlabs(len(items), m) * m
	for start := 0; start < len(items); start += slabSize {
		end := min(start+slabSize, len(items))
		slab := items[start:end]
		sort.Slice(slab, func(i, j int) bool { return slab[i].Loc.Y < slab[j].Loc.Y })
	}
}

// addNode appends a node with the given rectangle whose entries end at
// offset end, and returns its ID.
func (t *RTree) addNode(r geo.Rect, end int) uint32 {
	if len(t.a.Off) == 0 {
		t.a.Off = append(t.a.Off, 0)
	}
	t.a.Rects = append(t.a.Rects, r)
	t.a.Off = append(t.a.Off, uint32(end))
	return uint32(len(t.a.Rects) - 1)
}

// packLeaves tiles the items into leaf nodes: sort by X, cut into
// vertical slabs of S·M items (S = ceil(sqrt(P)), P = number of leaves),
// sort each slab by Y and pack runs of M. A slab's size is a multiple of
// M, so the leaves are the consecutive runs of the sorted items.
func (t *RTree) packLeaves(items []Item) []uint32 {
	m := t.maxEntries
	strSort(items, m)
	a := &t.a
	a.IDs, a.Locs = make([]uint32, len(items)), make([]geo.Point, len(items))
	for i, it := range items {
		a.IDs[i], a.Locs[i] = it.ID, it.Loc
	}
	var leaves []uint32
	slabSize := strSlabs(len(items), m) * m
	for start := 0; start < len(items); start += slabSize {
		end := min(start+slabSize, len(items))
		for ls := start; ls < end; ls += m {
			le := min(ls+m, end)
			r := geo.EmptyRect()
			for _, p := range a.Locs[ls:le] {
				r = r.ExpandPoint(p)
			}
			leaves = append(leaves, t.addNode(r, le))
		}
	}
	a.Leaves = len(leaves)
	return leaves
}

// packNodes packs one level of nodes into parents using the same STR tiling
// over node centers.
func (t *RTree) packNodes(nodes []uint32) []uint32 {
	m := t.maxEntries
	a := &t.a
	center := func(n uint32) geo.Point { return a.Rects[n].Center() }
	p := (len(nodes) + m - 1) / m
	s := int(math.Ceil(math.Sqrt(float64(p))))
	sort.Slice(nodes, func(i, j int) bool { return center(nodes[i]).X < center(nodes[j]).X })
	var parents []uint32
	slabSize := s * m
	for start := 0; start < len(nodes); start += slabSize {
		end := min(start+slabSize, len(nodes))
		slab := nodes[start:end]
		sort.Slice(slab, func(i, j int) bool { return center(slab[i]).Y < center(slab[j]).Y })
		for ls := 0; ls < len(slab); ls += m {
			kids := slab[ls:min(ls+m, len(slab))]
			r := geo.EmptyRect()
			for _, ch := range kids {
				r = r.Union(a.Rects[ch])
			}
			a.Children = append(a.Children, kids...)
			parents = append(parents, t.addNode(r, len(a.IDs)+len(a.Children)))
		}
	}
	return parents
}
