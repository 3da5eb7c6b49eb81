package shard

import (
	"context"
	"time"

	"ksp"
)

// Local is an in-process shard over a *ksp.Dataset — typically one tile
// of Dataset.PartitionSpatial, but any dataset works (a single Local
// shard makes the coordinator a pass-through).
type Local struct {
	name      string
	ds        *ksp.Dataset
	bounds    ksp.Rect
	hasBounds bool
}

// NewLocal wraps ds as a shard.
func NewLocal(name string, ds *ksp.Dataset) *Local {
	l := &Local{name: name, ds: ds}
	l.bounds, l.hasBounds = ds.Bounds()
	return l
}

// Name implements Shard.
func (l *Local) Name() string { return l.name }

// Bounds implements Shard.
func (l *Local) Bounds() (ksp.Rect, bool) { return l.bounds, l.hasBounds }

// Dataset returns the wrapped dataset (the server's /stats shard
// section reads per-shard dataset sizes through it).
func (l *Local) Dataset() *ksp.Dataset { return l.ds }

// publishesLive implements livePublisher: the engine offers into
// Request.Bound as it admits places, long before Search returns.
func (l *Local) publishesLive() {}

// Search implements Shard: one engine evaluation under the context's
// deadline and cancellation. A deadline or cancellation that fires
// mid-evaluation yields the engine's sound partial prefix, not an
// error.
func (l *Local) Search(ctx context.Context, req Request) (*Response, error) {
	opts := ksp.Options{
		CollectTrees: req.CollectTrees,
		MaxDist:      req.MaxDist,
		Window:       req.Window,
		Cancel:       ctx.Done(),
		Bound:        req.Bound,
	}
	if dl, ok := ctx.Deadline(); ok {
		opts.Deadline = time.Until(dl)
	}
	// When the gather is traced, the shard captures its own span tree
	// (prepare/candidate/tqsp phases) on a local trace joined to the
	// gather's trace ID; the coordinator grafts the exported subtree
	// under its calling span. A Local shard shares the caller's clock,
	// but the subtree still travels as exported JSON so the Local and
	// Remote paths stitch identically.
	var ltr *ksp.Trace
	if req.Trace {
		ltr = ksp.NewTrace("shard:" + l.name)
		ltr.SetID(req.TraceID)
		opts.Trace = ltr
	}
	res, stats, err := l.ds.SearchWith(req.Algo, ksp.Query{
		Loc:      ksp.Point{X: req.X, Y: req.Y},
		Keywords: req.Keywords,
		K:        req.K,
	}, opts)
	if err != nil {
		return nil, err
	}
	ltr.Finish()
	resp := &Response{
		Results: make([]Result, 0, len(res)),
		Partial: stats.Partial,
		Bound:   stats.ScoreBound,
		Stats:   *stats,
		Trace:   ltr.JSON(),
	}
	for _, item := range res {
		loc, _ := l.ds.Location(item.Place)
		sr := Result{
			Place:     item.Place,
			URI:       l.ds.URI(item.Place),
			Score:     item.Score,
			Looseness: item.Looseness,
			Dist:      item.Dist,
			X:         loc.X,
			Y:         loc.Y,
		}
		if item.Tree != nil {
			for _, n := range item.Tree.Nodes {
				sr.Tree = append(sr.Tree, TreeNode{
					URI:      l.ds.URI(n.V),
					Parent:   l.ds.URI(n.Parent),
					Depth:    n.Depth,
					Keywords: len(n.Matched),
				})
			}
		}
		resp.Results = append(resp.Results, sr)
	}
	return resp, nil
}

// Ping implements Shard: the readiness self-check query internal/server
// uses, bounded by ctx.
func (l *Local) Ping(ctx context.Context) error {
	l.ds.NearestPlaces(ksp.Point{}, 1)
	return ctx.Err()
}
