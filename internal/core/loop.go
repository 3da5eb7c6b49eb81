package core

import (
	"math"
	"time"

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

	loose  float64
	tree   *Tree
	pruned bool // rejected by Pruning Rule 1
}

// run evaluates one prepared query with alg's candidate stream and
// pruning rules: pop the next candidate, admit it, evaluate it and offer
// it to Hk, one candidate at a time. Each TQSP that enters Hk lowers θ,
// and θ sets Rule 2's threshold and the termination test for every later
// candidate, so the loop is serial by construction (DESIGN.md §8).
func (e *Engine) run(alg *algorithm, pq *prepQuery, opts Options, hk *topK, stats *Stats) error {
	rule1, rule2 := alg.rules(e, opts)
	root := opts.Trace.Root()
	src, err := e.newStream(alg, pq, opts, hk, stats, rule1, rule2)
	if err != nil {
		return err
	}
	defer src.close()
	rule1 = rule1 && src.win == nil // a window screens with Rule 1 itself
	s := newSearcher(e, pq, stats, opts.CollectTrees)
	defer s.release()
	lim := limiterFor(opts)
	for {
		c, ok := src.next()
		if !ok || !admit(c.bound, hk, stats, lim) {
			return nil
		}
		faultinject.Fire(PointSerialCandidate)
		cs := root.Child("candidate")
		cs.SetInt("place", int64(c.place))
		cs.SetFloat("dist", c.dist)
		s.curSpan = cs
		e.evaluate(s, &c, hk, rule1, rule2)
		s.curSpan = nil
		switch {
		case e.offer(hk, &c):
			cs.SetStr("outcome", "accepted")
		case c.pruned: // evaluate annotated the span
		case math.IsInf(c.loose, 1):
			cs.SetStr("outcome", "rejected")
		default:
			cs.SetStr("outcome", "below-threshold")
		}
		cs.End()
	}
}

// admit is the per-candidate gate, applied in stream order against the
// exact Hk. It ends the run (false) when bound reaches θ — bounds are
// non-decreasing along the stream, so no later candidate can improve the
// top-k — or when the deadline or cancellation fires, recording bound as
// the partial result's floor. Otherwise it counts the place as
// retrieved. The poll is per candidate: each one costs a TQSP
// construction, so the time.Now is noise, and checking before the
// expensive work keeps the overshoot at one BFS.
func admit(bound float64, hk *topK, stats *Stats, lim limiter) bool {
	if bound >= hk.theta() {
		return false
	}
	stats.PlacesRetrieved++
	if lim.stop(stats) {
		recordPartial(stats, bound)
		return false
	}
	return true
}

// evaluate applies Pruning Rule 1, then constructs c's TQSP under Rule
// 2's looseness threshold from Hk's θ, filling c's outcome fields and
// the searcher's counters.
func (e *Engine) evaluate(s *searcher, c *candidate, hk *topK, rule1, rule2 bool) {
	if rule1 && e.unqualified(c.place, s.pq, s.stats) {
		c.pruned = true
		s.curSpan.SetStr("pruned", "rule1")
		return
	}
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
	if c.pruned || math.IsInf(c.loose, 1) {
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
