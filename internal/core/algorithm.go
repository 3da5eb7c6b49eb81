package core

import (
	"fmt"
	"strings"
	"time"
)

// Algorithm selects a kSP evaluation strategy. Its value indexes the
// algorithms table and the engine's per-algorithm instrument vectors.
type Algorithm int

// The four strategies of the paper's evaluation.
const (
	// AlgoBSP is the basic method (Section 3).
	AlgoBSP Algorithm = iota
	// AlgoSPP adds unqualified-place and dynamic-bound pruning
	// (Section 4).
	AlgoSPP
	// AlgoSP adds the α-radius bounds over places and R-tree nodes
	// (Section 5) — the paper's fastest.
	AlgoSP
	// AlgoTA is the threshold-algorithm baseline (Section 6.2.6).
	AlgoTA
	numAlgorithms
)

// sourceKind is where an algorithm's candidates come from.
type sourceKind uint8

const (
	// distanceStream is R-tree distance browsing: places in ascending
	// distance, each bounded below by MinScore(dist) (Algorithm 1).
	distanceStream sourceKind = iota
	// alphaQueue is SP's best-first queue over R-tree nodes and places,
	// keyed by their α-bounds (Algorithm 4).
	alphaQueue
	// taLists is TA's pair of sorted lists, looseness and distance.
	taLists
)

// algorithm is one row of the algorithms table: everything that tells
// one strategy from another. The paper builds each algorithm from the
// previous one — SPP is BSP plus Rules 1 and 2, SP is SPP plus the
// α-bounds of Rules 3 and 4 — and the rows say exactly that.
type algorithm struct {
	name string // trace attribute, metric label, EXPLAIN and JSON name
	op   string // panic label; a constant, so the deferred guard never allocates

	needReach bool // Rule 1's reachability index is required
	needAlpha bool // the α-radius index is required
	// pruning applies Pruning Rules 1 and 2 (Rule 1 only where the
	// reachability index is loaded); see rules.
	pruning bool
	source  sourceKind
	// bound honours Options.Bound. TA, the comparison baseline, never a
	// sharded tile's fast path, always returns its private top-k.
	bound bool
}

var algorithms = [numAlgorithms]algorithm{
	AlgoBSP: {name: "BSP", op: "core.BSP", source: distanceStream, bound: true},
	AlgoSPP: {name: "SPP", op: "core.SPP", needReach: true, pruning: true, source: distanceStream, bound: true},
	AlgoSP:  {name: "SP", op: "core.SP", needAlpha: true, pruning: true, source: alphaQueue, bound: true},
	AlgoTA:  {name: "TA", op: "core.TA", source: taLists},
}

// String returns the algorithm's name ("BSP", "SPP", "SP", "TA").
func (a Algorithm) String() string {
	if a < 0 || a >= numAlgorithms {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return algorithms[a].name
}

// ParseAlgorithm returns the algorithm named s, ignoring case.
func ParseAlgorithm(s string) (Algorithm, bool) {
	for a := range algorithms {
		if strings.EqualFold(s, algorithms[a].name) {
			return Algorithm(a), true
		}
	}
	return 0, false
}

// rules reports which of Pruning Rules 1 and 2 alg applies under opts on
// e: BSP and TA never, SPP both unless disabled, SP Rule 1 only where the
// reachability index is loaded. Evaluation and EXPLAIN both ask here.
func (alg *algorithm) rules(e *Engine, opts Options) (rule1, rule2 bool) {
	return alg.pruning && e.Reach != nil && !opts.NoRule1, alg.pruning && !opts.NoRule2
}

// BSP evaluates q with the Basic Semantic Place algorithm (Algorithm 1):
// places are consumed in ascending spatial distance via incremental
// nearest-neighbour search on the R-tree, the TQSP of every retrieved
// place is fully constructed, and search stops when the next entry's
// minimal possible score reaches the kth candidate's score.
func (e *Engine) BSP(q Query, opts Options) ([]Result, *Stats, error) {
	return e.Search(AlgoBSP, q, opts)
}

// SPP evaluates q with Semantic Place retrieval with Pruning (Section 4):
// BSP plus Pruning Rule 1 (unqualified places are rejected by reachability
// queries before any TQSP construction) and Pruning Rule 2 (TQSP
// construction aborts once its dynamic looseness lower bound reaches the
// threshold Lw = f⁻¹(θ; S)). Requires EnableReach.
func (e *Engine) SPP(q Query, opts Options) ([]Result, *Stats, error) {
	return e.Search(AlgoSPP, q, opts)
}

// SP evaluates q with the full Semantic Place retrieval algorithm
// (Algorithm 4): R-tree entries — places and nodes alike — are processed
// in ascending order of their α-bounds on the ranking score (Lemmas 3 and
// 5) instead of pure spatial distance; entries whose bound reaches θ are
// pruned (Pruning Rules 3 and 4); surviving places still pass through
// Pruning Rules 1 and 2. Requires EnableAlpha (and EnableReach for
// Rule 1).
func (e *Engine) SP(q Query, opts Options) ([]Result, *Stats, error) {
	return e.Search(AlgoSP, q, opts)
}

// TA evaluates q with the hybrid top-k aggregation baseline of
// Section 6.2.6: one ranked list supplies qualified semantic places in
// increasing looseness (an incremental bottom-up keyword-first search in
// the style of [43]), the other supplies places in increasing spatial
// distance (R-tree nearest-neighbour search). Fagin's threshold algorithm
// combines them: each sorted access completes the other attribute on the
// fly, and search stops when the kth candidate's score reaches
// τ = f(L_last, S_last). TA ignores Options.Bound.
func (e *Engine) TA(q Query, opts Options) ([]Result, *Stats, error) {
	return e.Search(AlgoTA, q, opts)
}

// Search evaluates q with algorithm a. Preparation, panic containment,
// the metrics flush, the top-k and the exact flags are the same for all
// four algorithms; a's row in the algorithms table decides the rest.
func (e *Engine) Search(a Algorithm, q Query, opts Options) (results []Result, stats *Stats, err error) {
	start := time.Now()
	stats = &Stats{}
	if a < 0 || a >= numAlgorithms {
		return nil, stats, fmt.Errorf("core: unknown algorithm %v", a)
	}
	alg := &algorithms[a]
	defer e.noteOutcome(int(a), stats, &err)
	if alg.needReach && e.Reach == nil {
		return nil, stats, fmt.Errorf("core: %s requires the reachability index (EnableReach)", alg.name)
	}
	if alg.needAlpha && e.Alpha == nil {
		return nil, stats, fmt.Errorf("core: %s requires the α-radius index (EnableAlpha)", alg.name)
	}
	defer guard(alg.op, &results, &err)
	root := opts.Trace.Root()
	root.SetStr("algo", alg.name)
	prep := root.Child("prepare")
	pq, err := e.prepare(q)
	prep.End()
	if err != nil {
		return nil, stats, err
	}
	defer e.releasePrep(pq)
	bound := opts.Bound
	if !alg.bound {
		bound = nil
	}
	hk := newTopK(q.K, bound)
	if pq.answerable && q.K > 0 {
		if alg.source == taLists {
			e.taLoop(pq, opts, hk, stats)
		} else if err := e.run(alg, pq, opts, hk, stats); err != nil {
			return nil, stats, err
		}
	}
	results = hk.sorted()
	markExact(results, stats)
	finishStats(stats, time.Since(start))
	return results, stats, nil
}

// finishStats computes OtherTime as the wall-clock remainder.
// SemanticTime is summed from separate clock readings, so clamp rather
// than ever report negative time.
func finishStats(stats *Stats, elapsed time.Duration) {
	stats.OtherTime = elapsed - stats.SemanticTime
	if stats.OtherTime < 0 {
		stats.OtherTime = 0
	}
}
