package core

import "ksp/internal/rtree"

// Subset returns an engine over the same graph whose spatial candidate
// universe is restricted to places — the building block of spatial
// sharding: semantic structure stays global (TQSPs may reach vertices
// owned by other shards), only the GETNEXT stream is partitioned. The
// R-tree is rebuilt over the subset and, when the receiver has an
// α-radius index, the subset's is restricted from it (alpha.Index.Restrict:
// no BFS runs again); everything graph-wide — document index,
// reachability labels, scratch pools and metrics — is shared with the
// receiver, so per-shard queries keep feeding the same observability
// counters.
func (e *Engine) Subset(places []uint32) *Engine {
	clone := *e
	clone.Tree = rtree.OfPlaces(places, e.G.Loc)
	if e.Alpha != nil {
		// Node postings must line up with the new tree's node IDs, so the
		// shard gets an index of its own; WN(p) of its places is already
		// in the receiver's place file.
		clone.Alpha = e.Alpha.Restrict(clone.Tree)
	}
	if e.metrics != nil {
		// The receiver's EnableMetrics hooked its own tree; the rebuilt
		// tree needs the same live node-access hook.
		m := e.metrics
		clone.Tree.OnNodeAccess = func() { m.rtree.Inc() }
	}
	return &clone
}
