package core

import (
	"fmt"
	"time"

	"ksp/internal/rtree"
)

// SP evaluates q with the full Semantic Place retrieval algorithm
// (Algorithm 4): R-tree entries — places and nodes alike — are processed
// in ascending order of their α-bounds on the ranking score (Lemmas 3 and
// 5) instead of pure spatial distance; entries whose bound reaches θ are
// pruned (Pruning Rules 3 and 4); surviving places still pass through
// Pruning Rules 1 and 2. Requires EnableAlpha (and EnableReach for
// Rule 1).
//
//ksplint:hotpath
func (e *Engine) SP(q Query, opts Options) (results []Result, stats *Stats, err error) {
	start := time.Now()
	stats = &Stats{} //ksplint:ignore allocbound -- API contract: the caller owns the returned Stats
	defer e.noteOutcome(algoSP, stats, &err)
	if e.Alpha == nil {
		return nil, stats, fmt.Errorf("core: SP requires the α-radius index (EnableAlpha)")
	}
	defer guard("core.SP", &results, &err)
	root := opts.Trace.Root()
	root.SetStr("algo", "SP")
	prep := root.Child("prepare")
	pq, err := e.prepare(q)
	prep.End()
	if err != nil {
		return nil, stats, err
	}
	defer e.releasePrep(pq)
	hk := newTopK(q.K, opts.Bound)
	if pq.answerable && q.K > 0 {
		if err := e.spLoop(pq, opts, hk, stats); err != nil {
			return nil, stats, err
		}
	}
	results = hk.sorted()
	markExact(results, stats)
	finishStats(stats, time.Since(start))
	return results, stats, nil
}

// spEntry is a queue element: an R-tree node or a place, keyed by its
// α-bound on the ranking score.
type spEntry struct {
	bound float64
	dist  float64
	node  *rtree.Node // nil for places
	place uint32
}

// spHeap is a binary min-heap of spEntry with hand-rolled sift methods:
// container/heap boxes every pushed element into an interface{}, which
// made each SP enqueue an allocation — the dominant per-query cost once
// the query view went flat. The sift logic mirrors container/heap's
// algorithm exactly (same comparisons, same swaps), so the pop order —
// and therefore the candidate stream — is bit-identical to the old code.
type spHeap []spEntry

func (h spHeap) Len() int { return len(h) }
func (h spHeap) less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	// Deterministic tie-break: places before nodes, then by ID.
	ni, nj := h[i].node, h[j].node
	if (ni == nil) != (nj == nil) {
		return ni == nil
	}
	if ni == nil {
		return h[i].place < h[j].place
	}
	return ni.ID < nj.ID
}

func (h *spHeap) push(e spEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *spHeap) pop() spEntry {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	h.down(0, n)
	e := s[n]
	s[n] = spEntry{} // clear the node pointer so the GC can reclaim subtrees
	*h = s[:n]
	return e
}

func (h spHeap) up(j int) {
	for j > 0 {
		i := (j - 1) / 2
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h spHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2
		}
		if !h.less(j, i) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

func (e *Engine) spLoop(pq *prepQuery, opts Options, hk *topK, stats *Stats) error {
	qv, err := pq.queryView(e)
	if err != nil {
		return err
	}
	qloc := pq.loc.Loc
	mk := func(st *Stats, theta func() float64) (candSource, error) {
		src := &spSource{e: e, qv: qv, theta: theta, qloc: qloc, maxDist: opts.MaxDist, stats: st, pqueue: e.pools.getFrontier()}
		if e.Tree.Len() > 0 {
			root := e.Tree.Root()
			d := root.Rect.MinDist(qloc)
			src.pqueue.push(spEntry{bound: e.Rank.Score(qv.NodeBound(root.ID), d), dist: d, node: root})
		}
		return src, nil
	}
	return e.run(mk, pq, opts, hk, stats, e.Reach != nil && !opts.NoRule1, !opts.NoRule2)
}
