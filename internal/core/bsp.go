package core

import (
	"time"
)

// BSP evaluates q with the Basic Semantic Place algorithm (Algorithm 1):
// places are consumed in ascending spatial distance via incremental
// nearest-neighbour search on the R-tree, the TQSP of every retrieved
// place is fully constructed, and search stops when the next entry's
// minimal possible score reaches the kth candidate's score.
//
//ksplint:hotpath
func (e *Engine) BSP(q Query, opts Options) (results []Result, stats *Stats, err error) {
	start := time.Now()
	stats = &Stats{} //ksplint:ignore allocbound -- API contract: the caller owns the returned Stats
	defer e.noteOutcome(algoBSP, stats, &err)
	defer guard("core.BSP", &results, &err)
	root := opts.Trace.Root()
	root.SetStr("algo", "BSP")
	prep := root.Child("prepare")
	pq, err := e.prepare(q)
	prep.End()
	if err != nil {
		return nil, stats, err
	}
	defer e.releasePrep(pq)
	hk := newTopK(q.K, opts.Bound)
	if pq.answerable && q.K > 0 {
		if err := e.bspLoop(pq, opts, hk, stats); err != nil {
			return nil, stats, err
		}
	}
	results = hk.sorted()
	markExact(results, stats)
	finishStats(stats, time.Since(start))
	return results, stats, nil
}

func (e *Engine) bspLoop(pq *prepQuery, opts Options, hk *topK, stats *Stats) error {
	mk := func(st *Stats, _ func() float64) (candSource, error) {
		br, err := e.source(pq.loc.Loc, opts)
		if err != nil {
			return nil, err
		}
		return &streamSource{br: br, rank: e.Rank, maxDist: opts.MaxDist, stats: st}, nil
	}
	// BSP is the paper's no-pruning baseline: Rules 1 and 2 stay off in
	// serial and parallel runs alike, so its cost profile keeps meaning
	// "full TQSP construction per retrieved place".
	return e.run(mk, pq, opts, hk, stats, false, false)
}

// finishStats computes OtherTime as the wall-clock remainder. In a
// parallel run SemanticTime sums concurrent workers (CPU seconds) and
// can exceed the wall clock; clamp rather than report negative time.
func finishStats(stats *Stats, elapsed time.Duration) {
	stats.OtherTime = elapsed - stats.SemanticTime
	if stats.OtherTime < 0 {
		stats.OtherTime = 0
	}
}
