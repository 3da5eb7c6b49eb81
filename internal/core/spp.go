package core

import (
	"fmt"
	"time"
)

// SPP evaluates q with Semantic Place retrieval with Pruning (Section 4):
// BSP plus Pruning Rule 1 (unqualified places are rejected by reachability
// queries before any TQSP construction) and Pruning Rule 2 (TQSP
// construction aborts once its dynamic looseness lower bound reaches the
// threshold Lw = f⁻¹(θ; S)). Requires EnableReach.
//
//ksplint:hotpath
func (e *Engine) SPP(q Query, opts Options) (results []Result, stats *Stats, err error) {
	start := time.Now()
	stats = &Stats{} //ksplint:ignore allocbound -- API contract: the caller owns the returned Stats
	defer e.noteOutcome(algoSPP, stats, &err)
	if e.Reach == nil {
		return nil, stats, fmt.Errorf("core: SPP requires the reachability index (EnableReach)")
	}
	defer guard("core.SPP", &results, &err)
	root := opts.Trace.Root()
	root.SetStr("algo", "SPP")
	prep := root.Child("prepare")
	pq, err := e.prepare(q)
	prep.End()
	if err != nil {
		return nil, stats, err
	}
	defer e.releasePrep(pq)
	hk := newTopK(q.K, opts.Bound)
	if pq.answerable && q.K > 0 {
		if err := e.sppLoop(pq, opts, hk, stats); err != nil {
			return nil, stats, err
		}
	}
	results = hk.sorted()
	markExact(results, stats)
	finishStats(stats, time.Since(start))
	return results, stats, nil
}

func (e *Engine) sppLoop(pq *prepQuery, opts Options, hk *topK, stats *Stats) error {
	mk := func(st *Stats, _ func() float64) (candSource, error) {
		br, err := e.source(pq.loc.Loc, opts)
		if err != nil {
			return nil, err
		}
		return &streamSource{br: br, rank: e.Rank, maxDist: opts.MaxDist, stats: st}, nil
	}
	return e.run(mk, pq, opts, hk, stats, !opts.NoRule1, !opts.NoRule2)
}

// unqualified applies Pruning Rule 1: the place is discarded when some
// query keyword is unreachable from it. Keywords are probed in ascending
// document frequency — infrequent keywords reject fastest.
func (e *Engine) unqualified(p uint32, pq *prepQuery, stats *Stats) bool {
	for _, t := range pq.terms {
		stats.ReachQueries++
		if !e.Reach.CanReach(p, t) {
			stats.PrunedUnqualified++
			return true
		}
	}
	return false
}
