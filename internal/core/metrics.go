package core

import (
	"time"

	"ksp/internal/obs"
)

// Indexes of the per-algorithm instrument vectors: an Algorithm is its
// own index, and keyword search follows the four.
const (
	algoKeyword = int(numAlgorithms)
	numAlgos    = algoKeyword + 1
)

// engineMetrics bundles the engine's cumulative instruments. The
// pointer on Engine is nil until EnableMetrics, and every record site
// either branches on it once per query (noteQuery) or rides the
// nil-safe obs instrument methods, so the disabled path adds zero
// allocations and no atomics to query evaluation.
//
// Counters deliberately mirror Stats field-for-field: per-query numbers
// flush into the registry when the query finishes, so the cumulative
// series and the per-response QueryStats can never drift apart.
type engineMetrics struct {
	queries [numAlgos]*obs.Counter
	latency [numAlgos]*obs.Histogram

	getnext     *obs.Counter
	tqsp        *obs.Counter
	bfsVisits   *obs.Counter
	reach       *obs.Counter
	prune       [4]*obs.Counter // Pruning Rules 1-4
	rtree       *obs.Counter    // live, via the R-tree node-access hook
	partial     [2]*obs.Counter
	queryErrors *obs.Counter
}

// EnableMetrics registers the engine's instruments in reg and starts
// recording. Call once, before serving queries (like EnableReach and
// friends); WithAlpha clones share the instruments. Registration is
// idempotent per registry, so several engines feeding one registry
// (e.g. the bench suite's per-α engines) aggregate into one series set.
func (e *Engine) EnableMetrics(reg *obs.Registry) {
	m := &engineMetrics{}
	for a := 0; a < numAlgos; a++ {
		name := "keyword"
		if a < algoKeyword {
			name = algorithms[a].name
		}
		lbl := obs.Label{Key: "algo", Value: name}
		m.queries[a] = reg.Counter("ksp_engine_queries_total",
			"Completed queries by evaluation algorithm.", lbl)
		m.latency[a] = reg.Histogram("ksp_engine_query_duration_seconds",
			"Query evaluation latency by algorithm.", obs.DefLatencyBuckets, lbl)
	}
	m.getnext = reg.Counter("ksp_engine_getnext_rounds_total",
		"GETNEXT rounds: places popped from the spatial source.")
	m.tqsp = reg.Counter("ksp_engine_tqsp_computations_total",
		"TQSP constructions (GETSEMANTICPLACE invocations).")
	m.bfsVisits = reg.Counter("ksp_engine_bfs_vertex_visits_total",
		"Vertices expanded (popped) during TQSP construction.")
	m.reach = reg.Counter("ksp_engine_reach_queries_total",
		"Keyword reachability probes (Pruning Rule 1 input).")
	for i := range m.prune {
		m.prune[i] = reg.Counter("ksp_engine_pruning_hits_total",
			"Prunings by rule: 1 unqualified place, 2 dynamic bound, 3 alpha place, 4 alpha node.",
			obs.Label{Key: "rule", Value: string(rune('1' + i))})
	}
	m.rtree = reg.Counter("ksp_engine_rtree_node_accesses_total",
		"R-tree nodes expanded (browsing, range search, and SP best-first traversal).")
	m.partial[0] = reg.Counter("ksp_engine_partial_results_total",
		"Queries that stopped early and returned a best-so-far prefix.",
		obs.Label{Key: "reason", Value: "deadline"})
	m.partial[1] = reg.Counter("ksp_engine_partial_results_total",
		"Queries that stopped early and returned a best-so-far prefix.",
		obs.Label{Key: "reason", Value: "cancelled"})
	m.queryErrors = reg.Counter("ksp_engine_query_errors_total",
		"Queries that failed with an error (including contained panics).")

	// The spatial index reports node expansions live through its hook,
	// so accesses outside query evaluation (NearestPlaces, readiness
	// self-checks) are visible too.
	e.Tree.OnNodeAccess = func() { m.rtree.Inc() }
	e.metrics = m
}

// noteQuery flushes one finished query's counters into the registry.
// algo is an Algorithm's value or algoKeyword; dur is the query's total
// evaluation time (the same value QueryStats reports in microseconds). With
// metrics disabled this is a single nil check.
func (e *Engine) noteQuery(algo int, stats *Stats, dur time.Duration) {
	m := e.metrics
	if m == nil {
		return
	}
	m.queries[algo].Inc()
	m.latency[algo].Observe(dur.Seconds())
	m.getnext.Add(stats.PlacesRetrieved + stats.WindowScreenKilled)
	m.tqsp.Add(stats.TQSPComputations)
	m.bfsVisits.Add(stats.BFSVertexVisits)
	m.reach.Add(stats.ReachQueries)
	m.prune[0].Add(stats.PrunedUnqualified)
	m.prune[1].Add(stats.PrunedDynamicBound)
	m.prune[2].Add(stats.PrunedAlphaPlaces)
	m.prune[3].Add(stats.PrunedAlphaNodes)
	if stats.Partial {
		if stats.TimedOut {
			m.partial[0].Inc()
		}
		if stats.Cancelled {
			m.partial[1].Inc()
		}
	}
}

// noteOutcome is the deferred registry flush at an algorithm's exit:
// failed queries (including panics that guard converted to errors) count
// as errors, completed ones flush their Stats and observe TotalTime —
// the same duration QueryStats reports — into the latency histogram.
// Defer it before guard so it runs after guard has settled err.
func (e *Engine) noteOutcome(algo int, stats *Stats, err *error) {
	if e.metrics == nil {
		return
	}
	if *err != nil {
		e.noteError()
		return
	}
	e.noteQuery(algo, stats, stats.TotalTime())
}

// noteError counts a failed query (bad input, or a contained panic).
func (e *Engine) noteError() {
	if m := e.metrics; m != nil {
		m.queryErrors.Inc()
	}
}

// noteRTreeAccess records one R-tree node expansion from a path that
// bypasses the Browser (SP's own best-first queue).
func (e *Engine) noteRTreeAccess() {
	if m := e.metrics; m != nil {
		m.rtree.Inc()
	}
}
