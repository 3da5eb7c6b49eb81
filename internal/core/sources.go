package core

import (
	"math"

	"ksp/internal/alpha"
	"ksp/internal/geo"
	"ksp/internal/rtree"
)

// bulkSpatial and peekSpatial are the optional spatial-source extensions
// the windowed scheduler exploits: one bulk pop amortizing the heap
// bookkeeping over a whole window, and a peek at the next distance that
// serves as the window's resume bound. The R-tree browser provides both;
// a source without them falls back to one-at-a-time popping.
type bulkSpatial interface {
	NextK(k int, out []rtree.ItemDist) []rtree.ItemDist
}

type peekSpatial interface {
	PeekDist() (float64, bool)
}

// streamSource adapts the incremental nearest-place stream (R-tree or
// grid browser) to the candidate pipeline for BSP and SPP: candidates
// arrive in ascending spatial distance, bounded below by MinScore(dist)
// (Algorithm 1 line 7). MaxDist ends the stream — it is distance-ordered,
// so the radius cap is a termination condition.
type streamSource struct {
	br      spatialSource
	rank    Ranking
	maxDist float64
	stats   *Stats
	ibuf    []rtree.ItemDist // NextK scratch, reused across window fills
}

func (s *streamSource) next() (candidate, bool) {
	it, dist, ok := s.br.Next()
	if !ok {
		return candidate{}, false
	}
	if s.maxDist > 0 && dist > s.maxDist {
		return candidate{}, false
	}
	return candidate{place: it.ID, dist: dist, bound: s.rank.MinScore(dist)}, true
}

func (s *streamSource) close() { s.stats.RTreeNodeAccesses += s.br.Accesses() }

// fillWindow bulk-pops up to w places in ascending distance order. The
// resume bound is MinScore of the browser's next (unpopped) distance:
// the stream is distance-ordered, so it lower-bounds every candidate
// beyond the window. +Inf means exhausted — including the case where the
// stream crossed MaxDist, after which no in-range place remains.
func (s *streamSource) fillWindow(w int, buf []windowCand) ([]windowCand, float64) {
	bk, ok := s.br.(bulkSpatial)
	if !ok {
		// One-at-a-time fallback for spatial sources without NextK.
		for len(buf) < w {
			c, next := s.next()
			if !next {
				return buf, math.Inf(1)
			}
			buf = append(buf, windowCand{place: c.place, dist: c.dist, bound: c.bound})
		}
		resume := math.Inf(1)
		if pk, ok := s.br.(peekSpatial); ok {
			if d, more := pk.PeekDist(); more && !(s.maxDist > 0 && d > s.maxDist) {
				resume = s.rank.MinScore(d)
			}
		} else if n := len(buf); n > 0 {
			resume = buf[n-1].bound // bounds are non-decreasing along the stream
		}
		return buf, resume
	}
	s.ibuf = bk.NextK(w, s.ibuf[:0])
	for _, id := range s.ibuf {
		if s.maxDist > 0 && id.Dist > s.maxDist {
			return buf, math.Inf(1)
		}
		buf = append(buf, windowCand{place: id.Item.ID, dist: id.Dist, bound: s.rank.MinScore(id.Dist)})
	}
	resume := math.Inf(1)
	if pk, ok := s.br.(peekSpatial); ok {
		if d, more := pk.PeekDist(); more && !(s.maxDist > 0 && d > s.maxDist) {
			resume = s.rank.MinScore(d)
		}
	} else if n := len(buf); n == w && n > 0 {
		resume = buf[n-1].bound
	}
	return buf, resume
}

// spSource drives SP's best-first traversal (Algorithm 4): one priority
// queue holds R-tree nodes and places keyed by their α-bounds on the
// ranking score; node expansion applies Pruning Rules 3 and 4 against
// the current θ. With the exact θ (serial) the produced stream is
// exactly Algorithm 4's; with a stale θ (parallel producer) it is a
// superset in the same non-decreasing bound order, which the finalizer's
// exact checks reduce to the serial result (DESIGN.md §8).
type spSource struct {
	e       *Engine
	qv      *alpha.QueryView
	theta   func() float64
	qloc    geo.Point
	maxDist float64
	stats   *Stats
	pqueue  *spHeap // from the engine's pool; close hands it back
}

func (s *spSource) next() (candidate, bool) {
	for s.pqueue.Len() > 0 {
		ent := s.pqueue.pop()
		// Termination (Algorithm 4 line 9): every remaining entry's bound
		// is at least ent.bound.
		if ent.bound >= s.theta() {
			return candidate{}, false
		}
		if ent.node == nil {
			return candidate{place: ent.place, dist: ent.dist, bound: ent.bound}, true
		}

		// Node: expand children under Pruning Rules 3 and 4. SP walks the
		// tree through its own queue rather than a Browser, so the live
		// node-access metric is fed directly here.
		s.stats.RTreeNodeAccesses++
		s.e.noteRTreeAccess()
		n := ent.node
		th := s.theta()
		if n.Leaf {
			for _, it := range n.Items {
				d := s.qloc.Dist(it.Loc)
				if s.maxDist > 0 && d > s.maxDist {
					continue // outside the query radius
				}
				fb := s.e.Rank.Score(s.qv.PlaceBound(it.ID), d)
				if fb < th {
					s.pqueue.push(spEntry{bound: fb, dist: d, place: it.ID})
				} else {
					s.stats.PrunedAlphaPlaces++ // Pruning Rule 3
				}
			}
		} else {
			for _, ch := range n.Children {
				d := ch.Rect.MinDist(s.qloc)
				if s.maxDist > 0 && d > s.maxDist {
					continue // whole subtree outside the radius
				}
				fb := s.e.Rank.Score(s.qv.NodeBound(ch.ID), d)
				if fb < th {
					s.pqueue.push(spEntry{bound: fb, dist: d, node: ch})
				} else {
					s.stats.PrunedAlphaNodes++ // Pruning Rule 4
				}
			}
		}
	}
	return candidate{}, false
}

// close hands the queue back to the engine's pool. Both evaluation loops
// call it once, after the last next, on every way out.
func (s *spSource) close() {
	if s.pqueue != nil {
		s.e.pools.putFrontier(s.pqueue)
		s.pqueue = nil
	}
}

// fillWindow pops up to w places in ascending α-bound order. The resume
// bound is the head of the priority queue, which lower-bounds every
// remaining entry (places and unexpanded subtrees alike). When next
// terminated on θ the discarded head was already >= θ, so the queue head
// still lower-bounds the (dead) remainder and the scheduler ends the
// stream on its own resume >= θ test.
func (s *spSource) fillWindow(w int, buf []windowCand) ([]windowCand, float64) {
	for len(buf) < w {
		c, ok := s.next()
		if !ok {
			break
		}
		buf = append(buf, windowCand{place: c.place, dist: c.dist, bound: c.bound})
	}
	if s.pqueue.Len() == 0 {
		return buf, math.Inf(1)
	}
	return buf, (*s.pqueue)[0].bound
}
