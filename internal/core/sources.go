package core

import (
	"math"

	"ksp/internal/alpha"
	"ksp/internal/geo"
	"ksp/internal/rtree"
)

// candStream is one query's candidate stream, in the algorithm's order:
// R-tree distance browsing (BSP, SPP) or SP's α best-first queue,
// batched by the window scheduler (DESIGN.md §11) unless Options.Window
// is 1. It is one concrete type, so the evaluation loop makes no
// interface call per candidate.
type candStream struct {
	placeStream
	win *windowSource // nil when Options.Window is 1
}

// placeStream is the stream under the window: exactly one of its
// sources is set.
type placeStream struct {
	dist *streamSource
	sp   *spSource
}

// newStream opens alg's candidate stream for pq. Counters go to st and θ
// is read from hk. rule1 and rule2 select the window's screens; a
// windowed stream applies Rule 1 itself, so the evaluation step must not
// apply it again.
func (e *Engine) newStream(alg *algorithm, pq *prepQuery, opts Options, hk *topK, st *Stats, rule1, rule2 bool) (candStream, error) {
	var s candStream
	qloc := pq.loc.Loc
	if alg.source == alphaQueue {
		qv, err := pq.queryView(e)
		if err != nil {
			return s, err
		}
		//ksplint:ignore allocbound -- one source per query, inside TestAllocBudget's budget
		s.sp = &spSource{e: e, qv: qv, hk: hk, qloc: qloc, maxDist: opts.MaxDist, stats: st, pqueue: e.pools.getFrontier()}
		if e.Tree.Len() > 0 {
			root := e.Tree.Root()
			d := root.Rect.MinDist(qloc)
			s.sp.pqueue.push(spEntry{bound: e.Rank.Score(qv.NodeBound(root.ID), d), dist: d, node: root})
		}
	} else {
		//ksplint:ignore allocbound -- one source per query, inside TestAllocBudget's budget
		s.dist = &streamSource{br: e.Tree.NewBrowser(qloc), rank: e.Rank, maxDist: opts.MaxDist, stats: st}
	}
	if w, adaptive := resolveWindow(opts); w != 1 {
		var qv *alpha.QueryView
		if rule2 {
			// Best-effort: a load failure only disables the α screen (SP,
			// which requires the view, loaded it above and failed there).
			//ksplint:ignore droppederr -- see above: α screen is optional, the required path re-reports
			qv, _ = pq.queryView(e)
		}
		s.win = newWindowSource(e, s.placeStream, pq, qv, hk, st, w, adaptive, rule1, rule2)
	}
	return s, nil
}

// next returns the next candidate, false when the stream is exhausted or
// provably beyond any possible result.
func (s *candStream) next() (candidate, bool) {
	if s.win != nil {
		return s.win.next()
	}
	return s.placeStream.next()
}

// close flushes the stream's counters and hands its pooled state back.
// The evaluation loop calls it once, after the last next, on every way
// out.
func (s *candStream) close() {
	if s.win != nil {
		s.win.close()
	}
	if s.sp != nil {
		s.sp.close()
	} else {
		s.dist.close()
	}
}

func (p placeStream) next() (candidate, bool) {
	if p.sp != nil {
		return p.sp.next()
	}
	return p.dist.next()
}

// fillWindow appends up to w candidates in stream order to buf and
// returns the extended slice plus a resume bound: a lower bound, in
// score space, on every candidate not yet popped (+Inf when the stream is
// exhausted or terminated).
func (p placeStream) fillWindow(w int, buf []windowCand) ([]windowCand, float64) {
	if p.sp != nil {
		return p.sp.fillWindow(w, buf)
	}
	return p.dist.fillWindow(w, buf)
}

// streamSource adapts R-tree distance browsing to the candidate stream
// of BSP and SPP: candidates arrive in ascending spatial distance,
// bounded below by MinScore(dist) (Algorithm 1 line 7). MaxDist ends the
// stream — it is distance-ordered, so the radius cap is a termination
// condition.
type streamSource struct {
	br      *rtree.Browser
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

func (s *streamSource) close() { s.stats.RTreeNodeAccesses += s.br.NodeAccesses }

// fillWindow bulk-pops up to w places in ascending distance order. The
// resume bound is MinScore of the browser's next (unpopped) distance:
// the stream is distance-ordered, so it lower-bounds every candidate
// beyond the window. +Inf means exhausted — including the case where the
// stream crossed MaxDist, after which no in-range place remains.
func (s *streamSource) fillWindow(w int, buf []windowCand) ([]windowCand, float64) {
	s.ibuf = s.br.NextK(w, s.ibuf[:0])
	for _, id := range s.ibuf {
		if s.maxDist > 0 && id.Dist > s.maxDist {
			return buf, math.Inf(1)
		}
		buf = append(buf, windowCand{place: id.Item.ID, dist: id.Dist, bound: s.rank.MinScore(id.Dist)})
	}
	resume := math.Inf(1)
	if d, more := s.br.PeekDist(); more && !(s.maxDist > 0 && d > s.maxDist) {
		resume = s.rank.MinScore(d)
	}
	return buf, resume
}

// spSource drives SP's best-first traversal (Algorithm 4): one priority
// queue holds R-tree nodes and places keyed by their α-bounds on the
// ranking score; node expansion applies Pruning Rules 3 and 4 against
// the current θ, read from Hk, so the produced stream is exactly
// Algorithm 4's.
type spSource struct {
	e       *Engine
	qv      *alpha.QueryView
	hk      *topK
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
		if ent.bound >= s.hk.theta() {
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
		th := s.hk.theta()
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

// close hands the queue back to the engine's pool.
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
