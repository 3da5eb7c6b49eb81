package core

import (
	"cmp"
	"math"
	"slices"

	"ksp/internal/faultinject"
	"ksp/internal/obs"
	"ksp/internal/rdf"
)

// bfsScratch is the recyclable allocation-heavy state of TQSP
// construction: the epoch-stamped visited array lets thousands of BFS
// runs share one allocation, and parent links are allocated only once
// trees are first collected. Scratch lives in the engine's pool and is
// handed to one searcher at a time.
type bfsScratch struct {
	visited []uint32
	epoch   uint32
	queue   []bfsEnt
	parent  []uint32
}

// searcher carries the per-query scratch of the TQSP constructions.
type searcher struct {
	e       *Engine
	pq      *prepQuery
	stats   *Stats
	collect bool
	scratch *bfsScratch

	// curSpan is the trace span of the candidate currently being
	// evaluated (nil when tracing is off); getSemanticPlace hangs its
	// "tqsp" child under it. Set by the loop that owns this searcher, per
	// candidate.
	curSpan *obs.Span

	// lastLB reports, after a getSemanticPlace call, what is known about
	// the true looseness: the exact value when construction completed
	// (possibly +Inf for an unqualified place), or the dynamic lower
	// bound reached when Rule 2 aborted.
	lastLB float64
	// lastExact reports whether lastLB is the exact looseness.
	lastExact bool
}

type bfsEnt struct {
	v    uint32
	dist int32
}

func newSearcher(e *Engine, pq *prepQuery, stats *Stats, collect bool) *searcher {
	return &searcher{
		e:       e,
		pq:      pq,
		stats:   stats,
		collect: collect,
		scratch: e.pools.getScratch(e.G.NumVertices()),
	}
}

// release returns the searcher's scratch to the engine pool. The
// searcher must not be used afterwards.
func (s *searcher) release() {
	if s.scratch != nil {
		s.e.pools.putScratch(s.scratch)
		s.scratch = nil
	}
}

// getSemanticPlace constructs the TQSP rooted at p (Algorithm 2) and, when
// lw is finite, applies the dynamic-bound abort of Pruning Rule 2
// (Algorithm 3). A vertex is tested against Mq.ψ when the BFS discovers
// it — the root up front, every other vertex as it is stamped visited and
// queued — not when it is popped. At the pop of a depth-d vertex every
// vertex at distance <= d has therefore been discovered and matched, so
// each keyword still open lies at distance >= d+1 and
// LB(Tp) = 1 + Σfound + (d+1)·|B| is a lower bound on the looseness
// (Lemma 1); construction stops as soon as it reaches lw, and stops with
// the exact looseness the moment B empties. Queue order is discovery
// order, so each keyword is matched at the same vertex, with the same
// parent links, as a pop-time match would (DESIGN.md §5.1).
//
// It returns the looseness (or +Inf when no qualified semantic place is
// rooted at p, or when Rule 2 fired) and, if requested, the materialized
// tree. s.lastLB / s.lastExact record what was learned about the true
// looseness.
func (s *searcher) getSemanticPlace(p uint32, lw float64) (float64, *Tree) {
	faultinject.Fire(PointBFS)
	s.stats.TQSPComputations++
	tq := s.curSpan.Child("tqsp")
	defer tq.End()
	g := s.e.G
	dir := s.e.Dir
	sc := s.scratch
	mq := s.pq.mq

	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.visited {
			sc.visited[i] = 0
		}
		sc.epoch = 1
	}

	// Locals, so the inner loop keeps them in registers: the compiler
	// cannot rule out that a store to visited aliases a field.
	visited, epoch, collect := sc.visited, sc.epoch, s.collect

	b := s.pq.full // undiscovered keywords
	foundSum := 0.0
	var matched []matchRec

	q := sc.queue[:0]
	q = append(q, bfsEnt{v: p, dist: 0})
	sc.visited[p] = sc.epoch
	if s.collect {
		if sc.parent == nil {
			sc.parent = make([]uint32, len(sc.visited))
		}
		sc.parent[p] = p
	}
	if mask := mq.match(p, b); mask != 0 {
		b &^= mask
		if s.collect {
			matched = append(matched, matchRec{v: p, mask: mask})
		}
		if b == 0 && 1 >= lw {
			// The root alone covers q.ψ, so L(Tp) = 1 exactly — and that
			// already reaches the threshold.
			return s.abortRule2(tq, q, 1)
		}
	}

bfs:
	for head := 0; head < len(q) && b != 0; head++ {
		cur := q[head]
		s.stats.BFSVertexVisits++

		// Pruning Rule 2 (Lemma 1): everything at distance <= d(p, cur)
		// is already matched, so every open keyword lies one hop further
		// at least.
		next := cur.dist + 1
		lb := 1 + foundSum + float64(next)*float64(popcount(b))
		if lb >= lw {
			return s.abortRule2(tq, q, lb)
		}

		var nbrs [2][]uint32
		if dir != rdf.Incoming {
			nbrs[0] = g.Out(cur.v)
		}
		if dir != rdf.Outgoing {
			nbrs[1] = g.In(cur.v)
		}
		for _, ws := range nbrs {
			for _, w := range ws {
				if visited[w] == epoch {
					continue
				}
				visited[w] = epoch
				if collect {
					sc.parent[w] = cur.v
				}
				q = append(q, bfsEnt{v: w, dist: next})
				if mask := mq.match(w, b); mask != 0 {
					foundSum += float64(popcount(mask)) * float64(next)
					b &^= mask
					if collect {
						matched = append(matched, matchRec{v: w, mask: mask})
					}
					if b == 0 {
						break bfs
					}
				}
			}
		}
	}
	sc.queue = q

	if b != 0 {
		// The BFS exhausted p's reachable set without covering every
		// keyword: p is unqualified, exactly and permanently.
		s.lastLB, s.lastExact = math.Inf(1), true
		tq.SetStr("outcome", "unqualified")
		return math.Inf(1), nil
	}
	loose := 1 + foundSum
	s.lastLB, s.lastExact = loose, true
	if !s.collect {
		return loose, nil
	}
	return loose, s.buildTree(p, matched)
}

// abortRule2 ends a construction whose dynamic bound lb reached the
// looseness threshold, handing the (possibly grown) queue back to the
// scratch.
func (s *searcher) abortRule2(tq *obs.Span, q []bfsEnt, lb float64) (float64, *Tree) {
	s.stats.PrunedDynamicBound++
	s.scratch.queue = q
	s.lastLB, s.lastExact = lb, false
	tq.SetStr("outcome", "pruned-rule2")
	return math.Inf(1), nil
}

type matchRec struct {
	v    uint32
	mask uint64
}

// buildTree materializes the TQSP as the union of root-to-match paths.
func (s *searcher) buildTree(root uint32, matched []matchRec) *Tree {
	type info struct {
		depth   int
		matched []int
	}
	parent := s.scratch.parent
	nodes := make(map[uint32]*info)
	var addPath func(v uint32) int
	addPath = func(v uint32) int {
		if ni, ok := nodes[v]; ok {
			return ni.depth
		}
		if v == root {
			nodes[v] = &info{depth: 0}
			return 0
		}
		d := addPath(parent[v]) + 1
		nodes[v] = &info{depth: d}
		return d
	}
	addPath(root)
	for _, m := range matched {
		addPath(m.v)
		for i := 0; i < s.pq.numKeywords(); i++ {
			if m.mask&(1<<uint(i)) != 0 {
				nodes[m.v].matched = append(nodes[m.v].matched, i)
			}
		}
	}
	t := &Tree{Root: root}
	// Emit in BFS order: depth, then vertex ID for determinism.
	order := make([]uint32, 0, len(nodes))
	for v := range nodes {
		order = append(order, v)
	}
	// slices.SortFunc, not sort.Slice: the latter boxes the slice header
	// and allocates per call. Depth then vertex ID is a total order, so
	// the unstable sort is deterministic.
	slices.SortFunc(order, func(a, b uint32) int {
		if nodes[a].depth != nodes[b].depth {
			return cmp.Compare(nodes[a].depth, nodes[b].depth)
		}
		return cmp.Compare(a, b)
	})
	for _, v := range order {
		p := parent[v]
		if v == root {
			p = root
		}
		t.Nodes = append(t.Nodes, TreeNode{V: v, Parent: p, Depth: nodes[v].depth, Matched: nodes[v].matched})
	}
	return t
}
