// Package ctxcheck is golden input for the context-propagation check.
// The test lists this package in Config.EntryPackages.
package ctxcheck

import "context"

func evaluate(ctx context.Context, k int) int {
	_ = ctx
	return k
}

// MisplacedCtx violates the ctx-first convention.
func MisplacedCtx(k int, ctx context.Context) int { // want ctx
	return evaluate(ctx, k)
}

// DropsCtx has a context but mints a fresh root for its callee.
func DropsCtx(ctx context.Context, k int) int {
	return evaluate(context.Background(), k) // want ctx
}

// PassesCtx threads the request context through.
func PassesCtx(ctx context.Context, k int) int {
	return evaluate(ctx, k)
}

// Entry is an exported entry point that should accept a context
// instead of minting one.
func Entry(k int) int {
	return evaluate(context.TODO(), k) // want ctx
}

// helper is unexported, so rule 3 leaves it alone: internal plumbing
// may build roots for background work.
func helper(k int) int {
	return evaluate(context.Background(), k)
}

type coordinator struct{}

func (c *coordinator) callShard(ctx context.Context, tile int) {
	_ = evaluate(ctx, tile)
}

// Gather's per-tile goroutines run on its context: handing a worker a
// fresh root from inside the literal drops cancellation all the same.
func (c *coordinator) Gather(ctx context.Context, tiles []int) {
	done := make(chan struct{}, len(tiles))
	for _, tile := range tiles {
		go func(tile int) {
			defer func() { done <- struct{}{} }()
			c.callShard(context.Background(), tile) // want ctx
		}(tile)
	}
	for range tiles {
		<-done
	}
}

// GatherPasses hands its context to the workers.
func (c *coordinator) GatherPasses(ctx context.Context, tiles []int) {
	for _, tile := range tiles {
		func() { c.callShard(ctx, tile) }()
	}
}

// OwnCtx's literal takes a context of its own and is held to that one.
func OwnCtx(ctx context.Context, k int) int {
	f := func(c context.Context) int { return evaluate(context.TODO(), k) } // want ctx
	return f(ctx)
}
