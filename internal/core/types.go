package core

import (
	"time"

	"ksp/internal/geo"
	"ksp/internal/obs"
)

// Query is a kSP query: a location, a set of keywords, and the number of
// requested semantic places (Section 2).
type Query struct {
	Loc      geo.Point
	Keywords []string
	K        int
}

// Options tune a single query execution.
type Options struct {
	// Deadline aborts the algorithm after the given duration (the paper
	// caps BSP at 120 seconds and reports partial statistics). Zero means
	// no deadline.
	Deadline time.Duration
	// CollectTrees materializes the TQSP of each result (root-to-keyword
	// shortest paths) instead of reporting scores only.
	CollectTrees bool
	// NoRule1 / NoRule2 disable the corresponding pruning rules in SPP
	// and SP — used by the ablation benchmarks, never in normal operation.
	NoRule1 bool
	NoRule2 bool
	// MaxDist, when positive, restricts results to places within that
	// Euclidean distance of the query location ("nearby hospitals" really
	// means nearby). All algorithms honour it and use it as an extra
	// termination bound.
	MaxDist float64
	// Window sets the candidate-window size of the windowed, bound-ordered
	// scheduler in BSP/SPP/SP (DESIGN.md §11): the spatial stream is
	// consumed in bulk pops of W places, each window is screened with
	// zero-BFS bounds, and survivors are evaluated best-lower-bound first
	// so θ drops early. 1 runs the classic one-candidate-at-a-time loops
	// (bit-for-bit legacy behavior); >= 2 fixes the window at that size;
	// 0 (the default) or negative selects the adaptive policy (grow while
	// the screen kill-rate is high, shrink near termination). Results are
	// identical under every setting — only the work counters change. TA
	// and keyword search ignore it.
	Window int
	// Cancel aborts evaluation early when the channel is closed (e.g. an
	// HTTP client disconnecting: pass Request.Context().Done()). Partial
	// statistics are reported with Stats.Cancelled set.
	Cancel <-chan struct{}
	// Trace, when non-nil, receives a tree of timed spans covering the
	// query's phases (prepare, place browsing, per-candidate TQSP
	// construction, pruning decisions). All span calls are nil-safe, so a nil Trace costs
	// nothing. The caller owns the trace and calls Finish/JSON on it.
	Trace *obs.Trace
	// Bound, when non-nil, is a top-k threshold shared with other
	// evaluations of the same query over disjoint place sets (the tiles
	// of a scatter-gather): BSP/SPP/SP offer every place they admit to
	// their top-k into it and treat its θ as a ceiling on their own, so
	// places that k places elsewhere already beat are never constructed.
	// The returned list is then this evaluation's share of the joint
	// top-k rather than its private top-k. In-process only — set by the
	// shard coordinator, by no CLI or HTTP surface. TA ignores it.
	Bound *Bound
}

// Result is one TQSP in a kSP answer.
type Result struct {
	// Place is the root place vertex.
	Place uint32
	// Looseness is L(Tp) per Definition 2.
	Looseness float64
	// Dist is the Euclidean distance S(q, p).
	Dist float64
	// Score is f(L(Tp), S(q, p)).
	Score float64
	// Exact reports that this result provably belongs to the exact top-k
	// at this exact rank. Always true after a complete run; after a
	// partial (deadline/cancelled) run it holds exactly for the prefix
	// whose scores stay below Stats.ScoreBound (see DESIGN.md §9).
	Exact bool
	// Tree is the materialized TQSP when Options.CollectTrees is set.
	Tree *Tree
}

// Tree is a materialized TQSP: the union of the shortest paths from the
// root to the first-encountered vertex of every query keyword.
type Tree struct {
	Root uint32
	// Nodes lists the tree's vertices (root first) with their BFS parent
	// (the root's parent is the root itself) and depth.
	Nodes []TreeNode
}

// TreeNode is one vertex of a TQSP.
type TreeNode struct {
	V      uint32
	Parent uint32
	Depth  int
	// Matched holds the query-keyword positions (indexes into the deduped
	// query keyword list) first covered at this vertex.
	Matched []int
}

// Stats aggregates the cost counters the paper reports per experiment.
type Stats struct {
	// TQSPComputations counts GETSEMANTICPLACE invocations
	// (Figures 3(b), 4(b)).
	TQSPComputations int64
	// RTreeNodeAccesses counts expanded R-tree nodes
	// (Figures 3(c), 4(c), 7(b)).
	RTreeNodeAccesses int64
	// PlacesRetrieved counts places popped from the spatial source.
	PlacesRetrieved int64
	// ReachQueries counts reachability-index probes (Pruning Rule 1).
	ReachQueries int64
	// PrunedUnqualified counts places discarded by Pruning Rule 1.
	PrunedUnqualified int64
	// PrunedDynamicBound counts TQSP constructions aborted by Rule 2.
	PrunedDynamicBound int64
	// PrunedAlphaPlaces / PrunedAlphaNodes count Rules 3 and 4 prunings.
	PrunedAlphaPlaces int64
	PrunedAlphaNodes  int64
	// BFSVertexVisits counts the vertices TQSP construction expanded:
	// popped from the BFS queue to have their neighbours discovered (and,
	// in the loose stream behind TA and keyword search, the (keyword,
	// vertex) pairs its backward BFS reached). A vertex that is discovered
	// and matched but never popped is not counted.
	BFSVertexVisits int64
	// CacheHits counts looseness-cache hits that returned an exact
	// L(Tp) and skipped the BFS entirely; CacheBoundHits counts hits on
	// a stored Rule-2 lower bound tight enough to prune without a BFS;
	// CacheMisses counts lookups that fell through to a TQSP
	// construction. All zero when the cache is disabled.
	CacheHits      int64
	CacheBoundHits int64
	CacheMisses    int64
	// WindowsFilled counts bulk pops by the windowed scheduler;
	// WindowCandidates counts places that entered a window;
	// WindowScreenKilled counts candidates discarded by the zero-BFS
	// screens at fill time; WindowDeferredKilled counts screen survivors
	// later invalidated by a θ drop before evaluation. All zero when
	// Options.Window is 1.
	WindowsFilled        int64
	WindowCandidates     int64
	WindowScreenKilled   int64
	WindowDeferredKilled int64
	// SemanticTime is the time spent constructing TQSPs; OtherTime is the
	// remaining runtime (spatial search, reachability queries, bounds) —
	// the two bar segments of the paper's runtime figures.
	SemanticTime time.Duration
	OtherTime    time.Duration
	// TimedOut reports that Options.Deadline fired before completion.
	TimedOut bool
	// Cancelled reports that Options.Cancel fired before completion.
	Cancelled bool
	// Partial reports that evaluation stopped early (TimedOut or
	// Cancelled) and the results are the best-so-far top-k rather than
	// the proven answer. Per-result guarantees are in Result.Exact.
	Partial bool
	// ScoreBound is, after a partial run, a lower bound on the score of
	// every place the algorithm did not finalize (the Lemma-1 floor of
	// the next candidate at the moment evaluation stopped). Results
	// scoring strictly below it are exact. Zero when Partial is false
	// or no bound was established.
	ScoreBound float64
}

// TotalTime returns SemanticTime + OtherTime.
func (s *Stats) TotalTime() time.Duration { return s.SemanticTime + s.OtherTime }

// Add accumulates other into s (used by the bench harness to average over
// query workloads).
func (s *Stats) Add(o *Stats) {
	s.TQSPComputations += o.TQSPComputations
	s.RTreeNodeAccesses += o.RTreeNodeAccesses
	s.PlacesRetrieved += o.PlacesRetrieved
	s.ReachQueries += o.ReachQueries
	s.PrunedUnqualified += o.PrunedUnqualified
	s.PrunedDynamicBound += o.PrunedDynamicBound
	s.PrunedAlphaPlaces += o.PrunedAlphaPlaces
	s.PrunedAlphaNodes += o.PrunedAlphaNodes
	s.BFSVertexVisits += o.BFSVertexVisits
	s.CacheHits += o.CacheHits
	s.CacheBoundHits += o.CacheBoundHits
	s.CacheMisses += o.CacheMisses
	s.WindowsFilled += o.WindowsFilled
	s.WindowCandidates += o.WindowCandidates
	s.WindowScreenKilled += o.WindowScreenKilled
	s.WindowDeferredKilled += o.WindowDeferredKilled
	s.SemanticTime += o.SemanticTime
	s.OtherTime += o.OtherTime
	if o.TimedOut {
		s.TimedOut = true
	}
	if o.Cancelled {
		s.Cancelled = true
	}
	if o.Partial && (!s.Partial || o.ScoreBound < s.ScoreBound) {
		s.Partial = true
		s.ScoreBound = o.ScoreBound
	}
}
