package core

import (
	"ksp/internal/alpha"
	"ksp/internal/geo"
	"ksp/internal/rtree"
)

// placeStream is one query's candidate stream, in the algorithm's order:
// R-tree distance browsing (BSP, SPP) or SP's α best-first queue.
// Exactly one source is set. It is one concrete type, so the evaluation
// loop makes no interface call per candidate.
type placeStream struct {
	dist *streamSource
	sp   *spSource
}

// newStream opens alg's candidate stream for pq. Counters go to st and θ
// is read from hk.
func (e *Engine) newStream(alg *algorithm, pq *prepQuery, opts Options, hk *topK, st *Stats) (placeStream, error) {
	var s placeStream
	qloc := pq.loc.Loc
	if alg.source == alphaQueue {
		qv, err := pq.queryView(e)
		if err != nil {
			return s, err
		}
		s.sp = &spSource{e: e, qv: qv, hk: hk, qloc: qloc, maxDist: opts.MaxDist, stats: st, f: e.pools.getFrontier()}
		if e.Tree.Len() > 0 {
			root := e.Tree.Root()
			d := e.Tree.Rect(root).MinDist(qloc)
			s.sp.f.queue.push(spEntry{bound: e.Rank.Score(qv.NodeBound(root), d), dist: d, node: root})
		}
	} else {
		s.dist = &streamSource{br: e.Tree.NewBrowser(qloc), rank: e.Rank, maxDist: opts.MaxDist, stats: st}
	}
	return s, nil
}

// next returns the next candidate, false when the stream is exhausted or
// provably beyond any possible result.
func (p placeStream) next() (candidate, bool) {
	if p.sp != nil {
		return p.sp.next()
	}
	return p.dist.next()
}

// close flushes the stream's counters and hands its pooled state back.
// The evaluation loop calls it once, after the last next, on every way
// out.
func (p placeStream) close() {
	if p.sp != nil {
		p.sp.close()
	} else {
		p.dist.close()
	}
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

// spSource drives SP's best-first traversal (Algorithm 4): one priority
// queue holds R-tree nodes and leaf runs keyed by their α-bounds on the
// ranking score; node expansion applies Pruning Rules 3 and 4 against
// the current θ, read from Hk, so the produced stream is exactly
// Algorithm 4's.
//
// A leaf's surviving places are not pushed one by one: most of them lie
// beyond the final θ and would never be popped. They go, as one run, into
// the frontier's arena, and the queue holds only the run's least (bound,
// place) entry. Popping that entry queues the run's next least, so the
// queue head is still the least of everything not yet popped and the
// stream and its counters are those of a queue that held every place
// (DESIGN.md §16.3).
type spSource struct {
	e       *Engine
	qv      *alpha.QueryView
	hk      *topK
	qloc    geo.Point
	maxDist float64
	stats   *Stats
	f       *spFrontier // from the engine's pool; close hands it back
}

func (s *spSource) next() (candidate, bool) {
	f := s.f
	for len(f.queue) > 0 {
		ent := f.queue.pop()
		// Termination (Algorithm 4 line 9): every remaining entry's bound
		// is at least ent.bound.
		if ent.bound >= s.hk.theta() {
			return candidate{}, false
		}
		if ent.node&runTag != 0 {
			// A run head: queue the run's next least before handing the
			// place out, so the queue head stays the least of everything
			// not yet popped.
			f.advance(ent.node &^ runTag)
			return candidate{place: ent.place, dist: ent.dist, bound: ent.bound}, true
		}

		// Node: expand children under Pruning Rules 3 and 4. SP walks the
		// tree through its own queue rather than a Browser, so the live
		// node-access metric is fed directly here.
		s.stats.RTreeNodeAccesses++
		s.e.noteRTreeAccess()
		tree, n := s.e.Tree, ent.node
		th := s.hk.theta()
		if tree.IsLeaf(n) {
			lo := len(f.arena)
			ids, locs := tree.Leaf(n)
			for i, loc := range locs {
				d := s.qloc.Dist(loc)
				if s.maxDist > 0 && d > s.maxDist {
					continue // outside the query radius
				}
				fb := s.e.Rank.Score(s.qv.PlaceBound(ids[i]), d)
				if fb < th {
					f.arena = append(f.arena, spEntry{bound: fb, dist: d, place: ids[i]})
				} else {
					s.stats.PrunedAlphaPlaces++ // Pruning Rule 3
				}
			}
			f.addRun(lo)
		} else {
			for _, ch := range tree.Children(n) {
				d := tree.Rect(ch).MinDist(s.qloc)
				if s.maxDist > 0 && d > s.maxDist {
					continue // whole subtree outside the radius
				}
				fb := s.e.Rank.Score(s.qv.NodeBound(ch), d)
				if fb < th {
					f.queue.push(spEntry{bound: fb, dist: d, node: ch})
				} else {
					s.stats.PrunedAlphaNodes++ // Pruning Rule 4
				}
			}
		}
	}
	return candidate{}, false
}

// close hands the frontier back to the engine's pool.
func (s *spSource) close() {
	if s.f != nil {
		s.e.pools.putFrontier(s.f)
		s.f = nil
	}
}

// spEntry is a queue element — an R-tree node, or the head of a leaf run
// — keyed by its α-bound on the ranking score. In the arena the same
// 24 bytes hold one place of a run, with node set to the run's end.
type spEntry struct {
	bound float64
	dist  float64
	node  uint32 // the node's ID; runTag | arena index for a run head
	place uint32
}

// runTag marks a queue entry that is a run head, a place, rather than an
// R-tree node: node IDs and arena indices both stay below 2^31, since
// neither outnumbers the places.
const runTag = uint32(1) << 31

// spFrontier is SP's per-query best-first state: the queue and the arena
// of leaf runs it points into. The engine pools it, since a query grows
// it to a few thousand entries.
type spFrontier struct {
	queue spHeap
	arena []spEntry
}

// addRun makes the places appended to the arena since lo one run and
// queues its least entry; an empty run queues nothing.
func (f *spFrontier) addRun(lo int) {
	hi := len(f.arena)
	if lo == hi {
		return
	}
	for i := lo; i < hi; i++ {
		f.arena[i].node = uint32(hi)
	}
	f.queueHead(lo, hi)
}

// advance drops the run head at arena index lo, which was just popped,
// and queues the least of the run's rest.
func (f *spFrontier) advance(lo uint32) {
	if hi := f.arena[lo].node; lo+1 < hi {
		f.queueHead(int(lo)+1, int(hi))
	}
}

// queueHead moves the least (bound, place) entry of arena[lo:hi] — the
// order spHeap gives places — to lo and queues it. A linear scan: runs
// are one leaf long, and only the few the stream reaches are scanned
// more than once.
func (f *spFrontier) queueHead(lo, hi int) {
	run := f.arena[lo:hi]
	m := 0
	for i := 1; i < len(run); i++ {
		if run[i].bound < run[m].bound || run[i].bound == run[m].bound && run[i].place < run[m].place {
			m = i
		}
	}
	run[0], run[m] = run[m], run[0]
	f.queue.push(spEntry{bound: run[0].bound, dist: run[0].dist, node: runTag | uint32(lo), place: run[0].place})
}

// spHeap is a binary min-heap of spEntry with hand-rolled sift methods:
// container/heap boxes every pushed element into an interface{}, which
// made each SP enqueue an allocation — the dominant per-query cost once
// the query view went flat. The sift logic mirrors container/heap's
// algorithm exactly (same comparisons, same swaps).
type spHeap []spEntry

func (h spHeap) less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	// Deterministic tie-break: places before nodes, then by ID.
	pi, pj := h[i].node&runTag != 0, h[j].node&runTag != 0
	if pi != pj {
		return pi
	}
	if pi {
		return h[i].place < h[j].place
	}
	return h[i].node < h[j].node
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
