package core

import (
	"math"
	"time"

	"ksp/internal/alpha"
	"ksp/internal/faultinject"
)

// candidate is one place the algorithm considers, produced in the
// algorithm's order. bound is the pop-time lower bound on the score of
// this and every later candidate: MinScore(dist) for the
// distance-ordered stream (BSP/SPP), the α-bound f(λ(p), S) for SP. The
// remaining fields are filled by the evaluate step.
type candidate struct {
	place uint32
	dist  float64
	bound float64

	loose float64
	tree  *Tree
}

// run evaluates one prepared query with alg's candidate stream and
// pruning rules: pop the next candidate, screen it, admit it, evaluate
// it and offer it to Hk, one candidate at a time (DESIGN.md §8.1–8.2).
// Each TQSP that enters Hk lowers θ, and θ sets the screen's and Rule
// 2's thresholds and the termination test for every later candidate, so
// the loop is serial by construction.
func (e *Engine) run(alg *algorithm, pq *prepQuery, opts Options, hk *topK, stats *Stats) error {
	rule1, rule2 := alg.rules(e, opts)
	root := opts.Trace.Root()
	src, err := e.newStream(alg, pq, opts, hk, stats)
	if err != nil {
		return err
	}
	defer src.close()
	scr := e.newScreen(pq, stats, rule1, rule2)
	s := newSearcher(e, pq, stats, opts.CollectTrees)
	defer s.release()
	lim := limiterFor(opts)
	for {
		// Termination: bounds are non-decreasing along the stream, so no
		// later candidate can improve the top-k once one reaches θ.
		c, ok := src.next()
		if !ok || c.bound >= hk.theta() {
			return nil
		}
		stats.WindowCandidates++
		if scr.kills(&c, hk.theta()) {
			stats.WindowScreenKilled++
			continue
		}
		// Admit: the deadline and cancel poll is per retrieved candidate.
		// Each one costs a TQSP construction, so the time.Now is noise,
		// and checking before the expensive work keeps the overshoot at
		// one BFS. c.bound floors every place not yet finalized.
		stats.PlacesRetrieved++
		if lim.stop(stats) {
			recordPartial(stats, c.bound)
			return nil
		}
		faultinject.Fire(PointSerialCandidate)
		cs := root.Child("candidate")
		cs.SetInt("place", int64(c.place))
		cs.SetFloat("dist", c.dist)
		s.curSpan = cs
		e.evaluate(s, &c, hk, rule2)
		s.curSpan = nil
		switch {
		case e.offer(hk, &c):
			cs.SetStr("outcome", "accepted")
		case math.IsInf(c.loose, 1):
			cs.SetStr("outcome", "rejected")
		default:
			cs.SetStr("outcome", "below-threshold")
		}
		cs.End()
	}
}

// screen is the zero-BFS test SPP and SP put each popped candidate
// through before it is admitted (DESIGN.md §11): the looseness floor of
// the keywords missing at the root and the α place bound (Rule 2's
// lower bound, no BFS), then Pruning Rule 1. BSP runs it with both off,
// so it kills nothing.
type screen struct {
	e     *Engine
	pq    *prepQuery
	qv    *alpha.QueryView // nil unless bounds is set and the α view loaded
	stats *Stats
	rule1 bool
	// bounds screens with the zero-BFS lower bounds on looseness.
	bounds bool
}

// newScreen sets up pq's screen. rule1 and rule2 are the algorithm's
// pruning rules: the bounds ride on Rule 2, whose lower bound they are.
func (e *Engine) newScreen(pq *prepQuery, st *Stats, rule1, rule2 bool) screen {
	sc := screen{e: e, pq: pq, stats: st, rule1: rule1, bounds: rule2}
	if rule2 {
		// Best effort: a load failure only drops the α bound. SP, which
		// requires the view, loaded it in newStream and failed there.
		//ksplint:ignore droppederr -- the α bound is optional here; SP's required load re-reports the error
		sc.qv, _ = pq.queryView(e)
	}
	return sc
}

// kills reports whether c can be discarded at threshold th with no TQSP
// construction: its bound reaches th, or Rule 1 finds a keyword
// unreachable. The bounds go first, since they cost no reachability
// probe. Both kills are exact: every bound lower-bounds the true score
// (Lemmas 1 and 3) and θ never rises, so a killed place could not enter
// Hk.
func (sc *screen) kills(c *candidate, th float64) bool {
	if sc.bounds && sc.bound(c) >= th {
		return true
	}
	return sc.rule1 && sc.e.unqualified(c.place, sc.pq, sc.stats)
}

// bound returns a lower bound on c's score from c's own document and the
// α index. Each keyword absent at the root sits at graph distance ≥ 1,
// so L ≥ 1 + missing: the d = 0 prefix of Rule 2's dynamic bound, read
// from Mq.ψ. The α place bound (Lemma 3) is used when loaded for the
// query; under SP it is already c's stream bound.
func (sc *screen) bound(c *candidate) float64 {
	pq := sc.pq
	loose := 1 + float64(pq.numKeywords()-popcount(pq.mq.get(c.place)&pq.full))
	if sc.qv != nil {
		if ab := sc.qv.PlaceBound(c.place); ab > loose {
			loose = ab
		}
	}
	return sc.e.Rank.Score(loose, c.dist)
}

// evaluate constructs c's TQSP under Rule 2's looseness threshold from
// Hk's θ, filling c's outcome fields and the searcher's counters.
func (e *Engine) evaluate(s *searcher, c *candidate, hk *topK, rule2 bool) {
	lw := math.Inf(1)
	if rule2 {
		lw = e.Rank.LoosenessThreshold(hk.theta(), c.dist)
	}
	semStart := time.Now()
	c.loose, c.tree = s.getSemanticPlace(c.place, lw)
	s.stats.SemanticTime += time.Since(semStart)
}

// offer inserts an evaluated candidate into Hk when it beats θ, and
// reports whether it did.
func (e *Engine) offer(hk *topK, c *candidate) bool {
	if math.IsInf(c.loose, 1) {
		return false
	}
	f := e.Rank.Score(c.loose, c.dist)
	if f >= hk.theta() {
		return false
	}
	hk.add(Result{Place: c.place, Looseness: c.loose, Dist: c.dist, Score: f, Tree: c.tree})
	return true
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
