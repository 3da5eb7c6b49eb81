package core

import (
	"container/heap"
	"math"
	"math/bits"
	"time"

	"ksp/internal/rdf"
)

// taLoop is TA's evaluation (Section 6.2.6): Fagin's threshold
// algorithm over the looseness-ordered stream and R-tree distance
// browsing, stopping when θ reaches τ = f(L_last, S_last).
func (e *Engine) taLoop(pq *prepQuery, opts Options, hk *topK, stats *Stats) {
	root := opts.Trace.Root()
	s := newSearcher(e, pq, stats, opts.CollectTrees)
	defer s.release()
	lim := limiterFor(opts)
	// One span covers the looseness-ordered list (built here, consumed
	// throughout the loop); spatial candidates get individual spans.
	lspan := root.Child("loose-stream")
	defer lspan.End()
	ls := newLooseStream(e, pq, stats)
	br := e.Tree.NewBrowser(pq.loc.Loc)
	defer func() { stats.RTreeNodeAccesses += br.NodeAccesses }()

	seen := getSeen(&e.pools.vertSeen, e.G.NumVertices())
	defer putSeen(&e.pools.vertSeen, seen)
	lLast := math.Inf(-1) // last looseness from the keyword-first list
	sLast := math.Inf(-1) // last distance from the spatial list
	looseDone, spatialDone := false, false

	score := func(p uint32, loose, dist float64, tree *Tree) {
		if seen.has(p) {
			return
		}
		seen.add(p)
		if opts.MaxDist > 0 && dist > opts.MaxDist {
			return // outside the query radius
		}
		if f := e.Rank.Score(loose, dist); f < hk.theta() {
			hk.add(Result{Place: p, Looseness: loose, Dist: dist, Score: f, Tree: tree})
		}
	}

	for i := 0; !(looseDone && spatialDone); i++ {
		if i%16 == 0 && lim.stop(stats) {
			// TA's threshold τ = f(L_last, S_last) lower-bounds every
			// unseen place; with no τ yet, nothing is guaranteed (bound 0
			// leaves every result flagged degraded).
			tau := 0.0
			if lLast > math.Inf(-1) && sLast > math.Inf(-1) {
				tau = e.Rank.Score(lLast, sLast)
			}
			recordPartial(stats, tau)
			return
		}
		// Sorted access on the looseness list; spatial distance is the
		// on-the-fly random access.
		if !looseDone {
			semStart := time.Now()
			p, loose, ok := ls.next()
			stats.SemanticTime += time.Since(semStart)
			if !ok {
				// All qualified places enumerated: the top-k is final.
				return
			}
			lLast = loose
			score(p, loose, pq.loc.Loc.Dist(e.G.Loc(p)), nil)
		}
		// Sorted access on the spatial list; looseness via Algorithm 2.
		if !spatialDone {
			it, dist, ok := br.Next()
			if !ok {
				// Every place inspected: the top-k is final.
				return
			}
			if opts.MaxDist > 0 && dist > opts.MaxDist {
				// The stream is distance-ordered: every place within the
				// radius has been seen, so the top-k is final.
				return
			}
			sLast = dist
			stats.PlacesRetrieved++
			if !seen.has(it.ID) {
				cs := root.Child("candidate")
				cs.SetInt("place", int64(it.ID))
				cs.SetFloat("dist", dist)
				s.curSpan = cs
				semStart := time.Now()
				loose, tree := s.getSemanticPlace(it.ID, math.Inf(1))
				stats.SemanticTime += time.Since(semStart)
				s.curSpan = nil
				cs.End()
				if !math.IsInf(loose, 1) {
					score(it.ID, loose, dist, tree)
				} else {
					seen.add(it.ID)
				}
			}
		}
		// TA termination: unseen places have L >= lLast and S >= sLast,
		// hence f >= τ by monotonicity.
		if lLast > math.Inf(-1) && sLast > math.Inf(-1) {
			if hk.theta() <= e.Rank.Score(lLast, sLast) {
				return
			}
		}
	}
}

// looseStream enumerates qualified semantic places in non-decreasing
// looseness via a level-synchronous multi-source BFS per keyword, run
// backwards (the keyword occurrences flow toward potential roots). A place
// completing in round ℓ has max_i dg = ℓ, so after round ℓ every candidate
// with L ≤ ℓ+1 can be emitted: later completions have L ≥ ℓ+2.
type looseStream struct {
	e     *Engine
	pq    *prepQuery
	stats *Stats

	frontiers [][]uint32
	visited   [][]bool
	sumDist   []int32
	mask      []uint64

	cand  candHeap
	level int
	done  bool
}

type candEntry struct {
	place uint32
	loose float64
}

type candHeap []candEntry

func (h candHeap) Len() int { return len(h) }
func (h candHeap) Less(i, j int) bool {
	if h[i].loose != h[j].loose {
		return h[i].loose < h[j].loose
	}
	return h[i].place < h[j].place
}
func (h candHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candHeap) Push(x interface{}) { *h = append(*h, x.(candEntry)) }
func (h *candHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func newLooseStream(e *Engine, pq *prepQuery, stats *Stats) *looseStream {
	n := e.G.NumVertices()
	m := pq.numKeywords()
	ls := &looseStream{
		e:         e,
		pq:        pq,
		stats:     stats,
		frontiers: make([][]uint32, m),
		visited:   make([][]bool, m),
		sumDist:   make([]int32, n),
		mask:      make([]uint64, n),
	}
	for i := 0; i < m; i++ {
		ls.visited[i] = make([]bool, n)
	}
	// Keyword i starts from the vertices that hold it: its Mq.ψ bitset
	// read back in ascending vertex ID, the order of its posting list.
	for i := 0; i < m; i++ {
		for w, word := range pq.mq.bits[i] {
			for ; word != 0; word &= word - 1 {
				v := uint32(w<<6 | bits.TrailingZeros64(word))
				ls.visited[i][v] = true
				ls.frontiers[i] = append(ls.frontiers[i], v)
			}
		}
	}
	// Round 0: the posting vertices themselves (distance 0).
	for i := 0; i < m; i++ {
		for _, v := range ls.frontiers[i] {
			ls.reach(i, v, 0)
		}
	}
	return ls
}

// reach records that keyword i first reaches v at distance d.
func (ls *looseStream) reach(i int, v uint32, d int) {
	ls.stats.BFSVertexVisits++
	ls.sumDist[v] += int32(d)
	ls.mask[v] |= 1 << uint(i)
	if ls.mask[v] == ls.pq.full && ls.e.G.IsPlace(v) {
		heap.Push(&ls.cand, candEntry{place: v, loose: 1 + float64(ls.sumDist[v])})
	}
}

// next returns the next qualified place in non-decreasing looseness.
func (ls *looseStream) next() (uint32, float64, bool) {
	for {
		// Emit everything provably minimal at the current level.
		if ls.cand.Len() > 0 && (ls.done || ls.cand[0].loose <= float64(ls.level+1)) {
			c := heap.Pop(&ls.cand).(candEntry)
			return c.place, c.loose, true
		}
		if ls.done {
			return 0, 0, false
		}
		ls.expand()
	}
}

// expand advances every keyword BFS by one level.
func (ls *looseStream) expand() {
	g := ls.e.G
	dir := ls.e.Dir
	ls.level++
	anyAlive := false
	for i := range ls.frontiers {
		cur := ls.frontiers[i]
		if len(cur) == 0 {
			continue
		}
		var next []uint32
		push := func(w uint32) {
			if !ls.visited[i][w] {
				ls.visited[i][w] = true
				next = append(next, w)
				ls.reach(i, w, ls.level)
			}
		}
		for _, v := range cur {
			// Reverse traversal: the root reaches keywords along Dir, so
			// keywords flow to roots against it.
			if dir == rdf.Outgoing || dir == rdf.Undirected {
				for _, w := range g.In(v) {
					push(w)
				}
			}
			if dir == rdf.Incoming || dir == rdf.Undirected {
				for _, w := range g.Out(v) {
					push(w)
				}
			}
		}
		ls.frontiers[i] = next
		if len(next) > 0 {
			anyAlive = true
		}
	}
	if !anyAlive {
		ls.done = true
	}
}
