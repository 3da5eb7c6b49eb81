package ksp

import (
	"fmt"

	"ksp/internal/geo"
	"ksp/internal/rtree"
)

// Rect is an axis-aligned bounding rectangle (shard MBRs, Bounds).
type Rect = geo.Rect

// Bounds returns the minimum bounding rectangle of the dataset's places;
// ok is false when the dataset holds no places. Shard coordinators use
// this MBR for MinDist-based shard pruning.
func (d *Dataset) Bounds() (Rect, bool) {
	if d.engine.Tree.Len() == 0 {
		return Rect{}, false
	}
	return d.engine.Tree.Bounds(), true
}

// SpatialPlaces reports how many places this dataset's spatial index
// holds. On a full dataset it equals Stats().Places; on a
// PartitionSpatial tile it is the tile's own share (the tiles share the
// graph, so Stats counts every place either way).
func (d *Dataset) SpatialPlaces() int { return d.engine.Tree.Len() }

// PartitionSpatial splits the dataset into n spatially coherent shards:
// the places are put into Sort-Tile-Recursive order and cut into n
// contiguous runs, so each shard covers a compact tile of the plane
// (tight MBRs make the coordinator's MinDist pruning effective). Each
// shard is a full Dataset over its own R-tree and α-radius index but
// shares the graph, document index and reachability labels with the
// receiver — the union of the shards' candidate
// universes is exactly the receiver's, with no place in two shards.
//
// n = 1 returns the receiver itself. When n exceeds the number of
// places, the trailing shards are empty.
func (d *Dataset) PartitionSpatial(n int) ([]*Dataset, error) {
	if n < 1 {
		return nil, fmt.Errorf("ksp: PartitionSpatial wants n >= 1, got %d", n)
	}
	if n == 1 {
		return []*Dataset{d}, nil
	}
	places := d.g.Places()
	items := make([]rtree.Item, len(places))
	for i, p := range places {
		items[i] = rtree.Item{ID: p, Loc: d.g.Loc(p)}
	}
	per := (len(items) + n - 1) / n
	rtree.STRSort(items, per)
	shards := make([]*Dataset, n)
	for i := 0; i < n; i++ {
		start := i * per
		if start > len(items) {
			start = len(items)
		}
		end := start + per
		if end > len(items) {
			end = len(items)
		}
		run := make([]uint32, end-start)
		for j, it := range items[start:end] {
			run[j] = it.ID
		}
		shards[i] = &Dataset{g: d.g, engine: d.engine.Subset(run), cfg: d.cfg}
	}
	return shards, nil
}
