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
	// queue holds the last construction's BFS queue in discovery order;
	// its first BFSVertexVisits entries are the vertices it expanded.
	queue  []uint32
	parent []uint32
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
// it — the root up front, every other vertex right after the expansion
// that queued it — not when it is popped. At the pop of a depth-d vertex
// every vertex at distance <= d has therefore been discovered and
// matched, so each keyword still open lies at distance >= d+1 and
// LB(Tp) = 1 + Σfound + (d+1)·|B| is a lower bound on the looseness
// (Lemma 1). The bound is the same at every pop of depth d: a keyword
// matched meanwhile lies at depth d+1, so it moves d+1 from the open term
// into Σfound. Every term is a small integer, so the float64 sums agree
// bit for bit too, and Rule 2 is tested once, at the first pop of each
// level. Construction stops as soon as the bound reaches lw, and stops
// with the exact looseness the moment B empties (DESIGN.md §5.1).
//
// An expansion discovers in two passes. The first writes every neighbour
// past the queue's end and advances the end only over those not yet
// stamped, with no branch on the stamp. The second sets the new
// vertices' parent links and matches them in discovery order, so each
// keyword is matched at the same vertex, under the same parent, as a
// pop-time match would be.
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
		clear(sc.visited)
		sc.epoch = 1
	}

	// Locals, so the inner loop keeps them in registers: the compiler
	// cannot rule out that a store to visited aliases a field.
	visited, epoch, collect := sc.visited, sc.epoch, s.collect
	if collect && sc.parent == nil {
		sc.parent = make([]uint32, len(visited))
	}
	parent := sc.parent

	b := s.pq.full // undiscovered keywords
	foundSum := 0.0
	var matched []matchRec

	// q[:m] is discovered; the rest of q is room to write past its end.
	q := append(sc.queue[:0], p)
	q = q[:cap(q)]
	m := 1
	visited[p] = epoch
	if collect {
		parent[p] = p
	}
	if mask := mq.match(p, b); mask != 0 {
		b &^= mask
		if collect {
			matched = append(matched, matchRec{v: p, mask: mask})
		}
		if b == 0 && 1 >= lw {
			// The root alone covers q.ψ, so L(Tp) = 1 exactly — and that
			// already reaches the threshold.
			return s.abortRule2(tq, q, 0, 1)
		}
	}

	var visits int64
	next := 0.0   // depth of the vertices the current level discovers
	levelEnd := 0 // q[levelEnd:] lies deeper than the vertex popped
bfs:
	for head := 0; head < m && b != 0; head++ {
		visits++
		if head == levelEnd {
			// Pruning Rule 2 (Lemma 1), once per level: everything at
			// distance <= d(p, q[head]) is already matched, so every open
			// keyword lies one hop further at least.
			levelEnd, next = m, next+1
			if lb := 1 + foundSum + next*float64(popcount(b)); lb >= lw {
				return s.abortRule2(tq, q, visits, lb)
			}
		}
		v, n := q[head], m
		ws, more := g.Out(v), dir == rdf.Undirected
		if dir == rdf.Incoming {
			ws = g.In(v)
		}
		for {
			if len(q) < m+len(ws) {
				q = slices.Grow(q[:m], len(ws))
				q = q[:cap(q)]
			}
			for _, w := range ws {
				// x is 0 iff w was stamped already; (x|-x)>>31 is then 0,
				// and 1 otherwise.
				x := visited[w] ^ epoch
				visited[w] = epoch
				q[m] = w
				m += int((x | -x) >> 31)
			}
			if !more {
				break
			}
			ws, more = g.In(v), false
		}
		for _, w := range q[n:m] {
			if collect {
				parent[w] = v
			}
			if mask := mq.match(w, b); mask != 0 {
				foundSum += float64(popcount(mask)) * next
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
	sc.queue = q
	s.stats.BFSVertexVisits += visits

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
// looseness threshold after visits expansions, handing the (possibly
// grown) queue back to the scratch.
func (s *searcher) abortRule2(tq *obs.Span, q []uint32, visits int64, lb float64) (float64, *Tree) {
	s.stats.BFSVertexVisits += visits
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
