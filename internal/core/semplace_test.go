package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/geo"
	"ksp/internal/rdf"
)

// popTimeBFS is the paper's Algorithm 2 with the Rule 2 abort of
// Algorithm 3, as printed: a vertex is tested for keywords when it is
// popped, and the dynamic bound at a depth-d pop is 1 + Σfound + d·|B|. It
// is the reference getSemanticPlace is compared against and shares nothing
// with it but the graph and the prepared query.
type popTimeBFS struct {
	dist   []int32 // -1: not discovered
	parent []uint32
	queue  []uint32
}

type popTimeResult struct {
	loose   float64 // +Inf when unqualified or aborted
	aborted bool    // Rule 2 fired
	lb      float64 // the bound it fired at
	tree    *Tree   // when collect and completed
	pops    int64   // expanded vertices, the abort's included
}

func newPopTimeBFS(g *rdf.Graph) *popTimeBFS {
	r := &popTimeBFS{dist: make([]int32, g.NumVertices()), parent: make([]uint32, g.NumVertices())}
	for i := range r.dist {
		r.dist[i] = -1
	}
	return r
}

func (r *popTimeBFS) run(e *Engine, pq *prepQuery, p uint32, lw float64, collect bool) (res popTimeResult) {
	defer func() {
		for _, v := range r.queue {
			r.dist[v] = -1
		}
	}()
	r.queue = append(r.queue[:0], p)
	r.dist[p], r.parent[p] = 0, p
	open := pq.full
	found := 0.0
	matchedAt := make(map[uint32]uint64)
	for head := 0; head < len(r.queue); head++ {
		v := r.queue[head]
		d := r.dist[v]
		res.pops++
		if lb := 1 + found + float64(d)*float64(popcount(open)); lb >= lw {
			res.loose, res.aborted, res.lb = math.Inf(1), true, lb
			return res
		}
		if mask := pq.mq.get(v) & open; mask != 0 {
			found += float64(popcount(mask)) * float64(d)
			open &^= mask
			matchedAt[v] = mask
			if open == 0 {
				res.loose = 1 + found
				if collect {
					res.tree = r.tree(p, matchedAt)
				}
				return res
			}
		}
		var nbrs []uint32
		if e.Dir != rdf.Incoming {
			nbrs = append(nbrs, e.G.Out(v)...)
		}
		if e.Dir != rdf.Outgoing {
			nbrs = append(nbrs, e.G.In(v)...)
		}
		for _, w := range nbrs {
			if r.dist[w] < 0 {
				r.dist[w], r.parent[w] = d+1, v
				r.queue = append(r.queue, w)
			}
		}
	}
	res.loose = math.Inf(1)
	return res
}

// tree is the union of the root-to-match paths in the canonical order of
// Tree.Nodes: by depth, then vertex ID.
func (r *popTimeBFS) tree(root uint32, matchedAt map[uint32]uint64) *Tree {
	in := map[uint32]bool{root: true}
	for v := range matchedAt {
		for ; !in[v]; v = r.parent[v] {
			in[v] = true
		}
	}
	t := &Tree{Root: root}
	for v := range in {
		n := TreeNode{V: v, Parent: r.parent[v], Depth: int(r.dist[v])}
		for i := 0; i < MaxKeywords; i++ {
			if matchedAt[v]&(1<<uint(i)) != 0 {
				n.Matched = append(n.Matched, i)
			}
		}
		t.Nodes = append(t.Nodes, n)
	}
	slices.SortFunc(t.Nodes, func(a, b TreeNode) int {
		if a.Depth != b.Depth {
			return cmp.Compare(a.Depth, b.Depth)
		}
		return cmp.Compare(a.V, b.V)
	})
	return t
}

// randomBFSGraph is a sparse random graph (cycles, multi-edges and
// self-loops included) whose documents draw on a vocabulary small enough
// that most keyword sets are coverable from most roots.
func randomBFSGraph(rng *rand.Rand, n int) *rdf.Graph {
	b := rdf.NewBuilder()
	for i := 0; i < n; i++ {
		v := b.AddBareVertex(fmt.Sprintf("v%d", i))
		for j := rng.Intn(3); j > 0; j-- {
			b.AddTermID(v, b.Vocab.ID(fmt.Sprintf("w%d", rng.Intn(12))))
		}
		b.SetLocation(v, geo.Point{X: rng.Float64(), Y: rng.Float64()})
	}
	for i := rng.Intn(2 * n); i >= 0; i-- {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)), "p")
	}
	return b.Build()
}

// TestDiscoveryTimeBFSMatchesPopTime is the differential test of the
// TQSP kernel: matching keywords when a vertex is discovered, under the
// (d+1)·|B| bound, must tell the caller exactly what the paper's
// pop-time Algorithm 2/3 tells it — the same looseness, verdict and tree,
// an abort precisely when the looseness cannot beat lw — and never expand
// more vertices doing so.
func TestDiscoveryTimeBFSMatchesPopTime(t *testing.T) {
	for _, dir := range []rdf.Direction{rdf.Outgoing, rdf.Incoming, rdf.Undirected} {
		for seed := int64(1); seed <= 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			g := randomBFSGraph(rng, 20+rng.Intn(60))
			e := NewEngine(g, dir)
			ref := newPopTimeBFS(g)
			for trial := 0; trial < 6; trial++ {
				kws := make([]string, 1+rng.Intn(4))
				for i := range kws {
					kws[i] = fmt.Sprintf("w%d", rng.Intn(12))
				}
				pq, err := e.prepare(Query{Keywords: kws, K: 1})
				if err != nil {
					t.Fatal(err)
				}
				if !pq.answerable {
					e.releasePrep(pq)
					continue
				}
				for _, collect := range []bool{false, true} {
					stats := &Stats{}
					s := newSearcher(e, pq, stats, collect)
					for p := uint32(0); int(p) < g.NumVertices(); p++ {
						label := fmt.Sprintf("dir %v seed %d kws %v collect %v root %d", dir, seed, kws, collect, p)
						exact := ref.run(e, pq, p, math.Inf(1), collect)
						lws := []float64{math.Inf(1), 1, 1.5, 2, 3, 4.5, 8}
						if l := exact.loose; !math.IsInf(l, 1) {
							lws = append(lws, l-1, l, l+0.5, l+1)
						}
						for _, lw := range lws {
							compareWithPopTime(t, fmt.Sprintf("%s lw %v", label, lw), s, stats, ref, exact.loose, p, lw)
						}
					}
					s.release()
				}
				e.releasePrep(pq)
			}
		}
	}
}

// compareWithPopTime runs one construction both ways and checks the
// contract; loose is the true looseness of the TQSP rooted at p.
func compareWithPopTime(t *testing.T, label string, s *searcher, stats *Stats, ref *popTimeBFS, loose float64, p uint32, lw float64) {
	t.Helper()
	want := ref.run(s.e, s.pq, p, lw, s.collect)
	before := *stats
	got, tree := s.getSemanticPlace(p, lw)
	pops := stats.BFSVertexVisits - before.BFSVertexVisits
	aborted := stats.PrunedDynamicBound > before.PrunedDynamicBound

	if got != want.loose {
		t.Fatalf("%s: looseness %v, pop-time %v", label, got, want.loose)
	}
	if !reflect.DeepEqual(tree, want.tree) {
		t.Fatalf("%s: tree\n%+v\npop-time\n%+v", label, tree, want.tree)
	}
	if pops > want.pops {
		t.Fatalf("%s: expanded %d vertices, pop-time %d", label, pops, want.pops)
	}
	if aborted == s.lastExact {
		t.Fatalf("%s: aborted %v but lastExact %v", label, aborted, s.lastExact)
	}
	switch {
	case loose < lw:
		// Beatable: the construction must run to completion.
		if aborted || s.lastLB != loose {
			t.Fatalf("%s: true looseness %v < lw, yet aborted=%v lastLB=%v", label, loose, aborted, s.lastLB)
		}
	case aborted:
		// The bound it stopped at is a lower bound on the truth, reaches
		// lw, and is at least as tight as the pop-time bound.
		if s.lastLB > loose || s.lastLB < lw || (want.aborted && s.lastLB < want.lb) {
			t.Fatalf("%s: aborted at bound %v (true looseness %v, pop-time bound %v)", label, s.lastLB, loose, want.lb)
		}
	default:
		// Not beatable and not aborted: only an unqualified root lets the
		// BFS run dry first, and the pop-time BFS must have run dry too
		// (its bound is the weaker one).
		if !math.IsInf(loose, 1) || !math.IsInf(s.lastLB, 1) || want.aborted {
			t.Fatalf("%s: completed with lastLB %v although looseness %v >= lw (pop-time aborted: %v)", label, s.lastLB, loose, want.aborted)
		}
	}
}

// replaySP answers q the way Engine.SP does — the same candidate
// source, screen and top-k — with construct standing in
// for getSemanticPlace, so that one query can be evaluated over two BFS
// kernels. construct returns the looseness (+Inf when
// rejected) and keeps its own counters in st.
func replaySP(t *testing.T, e *Engine, q Query, st *Stats, construct func(pq *prepQuery, p uint32, lw float64) float64) []Result {
	t.Helper()
	pq, err := e.prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer e.releasePrep(pq)
	hk := newTopK(q.K, nil)
	if !pq.answerable {
		return nil
	}
	alg := &algorithms[AlgoSP]
	rule1, rule2 := alg.rules(e, Options{})
	src, err := e.newStream(alg, pq, Options{}, hk, st)
	if err != nil {
		t.Fatal(err)
	}
	defer src.close()
	scr := e.newScreen(pq, st, rule1, rule2)
	for {
		cand, ok := src.next()
		if !ok || cand.bound >= hk.theta() {
			break
		}
		if scr.kills(&cand, hk.theta()) {
			continue
		}
		loose := construct(pq, cand.place, e.Rank.LoosenessThreshold(hk.theta(), cand.dist))
		if math.IsInf(loose, 1) {
			continue
		}
		if f := e.Rank.Score(loose, cand.dist); f < hk.theta() {
			hk.add(Result{Place: cand.place, Looseness: loose, Dist: cand.dist, Score: f})
		}
	}
	return hk.sorted()
}

// TestBFSWorkGuard is the regression gate for the discovery-time kernel,
// in the style of TestShardWorkGuard: on the Yago-like graph under the
// paper's §6.1 query generator, SP must expand at most half the vertices
// the pop-time Algorithm 2/3 expands for the very same constructions.
// Counts repeat exactly, so there is no noise to absorb: at the time of
// writing the ratio is 0.26 (9 849 → 2 593 expansions per query) on the
// 6,000-vertex fixture. The replay also logs how much the constructions
// of one query overlap — Σ expansions over the vertices expanded at least
// once — the figure a bit-parallel BFS over one query's constructions
// would live on, on the 6,000-vertex fixture and on the
// benchmark's 12,000-vertex one.
func TestBFSWorkGuard(t *testing.T) {
	for _, n := range []int{6000, 12000} {
		t.Run(fmt.Sprint(n), func(t *testing.T) { bfsWorkGuard(t, n) })
	}
}

func bfsWorkGuard(t *testing.T, n int) {
	g := gen.Generate(gen.YagoConfig(n, 7))
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	qg := gen.NewQueryGen(g, rdf.Outgoing, 11)
	ref := newPopTimeBFS(g)

	var engine, replayed, popTime Stats
	var overlap []float64 // per query: Σ expansions / distinct vertices expanded
	for qi := 0; qi < 100; qi++ {
		loc, kws := qg.Original(5)
		q := Query{Loc: loc, Keywords: kws, K: 5}
		want, stats, err := e.SP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		engine.Add(stats)

		// The replay over the engine's own kernel must repeat the
		// engine's counts, or it is not replaying SP. A construction
		// expands its queue's vertices in order, so the first
		// BFSVertexVisits of them are the ones it expanded.
		expanded := map[uint32]bool{}
		before := replayed.BFSVertexVisits
		got := replaySP(t, e, q, &replayed, func(pq *prepQuery, p uint32, lw float64) float64 {
			s := newSearcher(e, pq, &replayed, false)
			defer s.release()
			visits := replayed.BFSVertexVisits
			loose, _ := s.getSemanticPlace(p, lw)
			for _, ent := range s.scratch.queue[:replayed.BFSVertexVisits-visits] {
				expanded[ent.v] = true
			}
			return loose
		})
		sameResults(t, "replay", got, want)
		if len(expanded) > 0 {
			overlap = append(overlap, float64(replayed.BFSVertexVisits-before)/float64(len(expanded)))
		}

		got = replaySP(t, e, q, &popTime, func(pq *prepQuery, p uint32, lw float64) float64 {
			res := ref.run(e, pq, p, lw, false)
			popTime.TQSPComputations++
			popTime.BFSVertexVisits += res.pops
			if res.aborted {
				popTime.PrunedDynamicBound++
			}
			return res.loose
		})
		sameResults(t, "pop-time replay", got, want)
	}

	for _, c := range []struct {
		name          string
		engine, other int64
	}{
		{"replay TQSP constructions", engine.TQSPComputations, replayed.TQSPComputations},
		{"replay Rule 2 aborts", engine.PrunedDynamicBound, replayed.PrunedDynamicBound},
		{"replay BFS expansions", engine.BFSVertexVisits, replayed.BFSVertexVisits},
		{"pop-time TQSP constructions", engine.TQSPComputations, popTime.TQSPComputations},
		{"pop-time Rule 2 aborts", engine.PrunedDynamicBound, popTime.PrunedDynamicBound},
	} {
		if c.engine != c.other {
			t.Errorf("%s: %d, SP counted %d", c.name, c.other, c.engine)
		}
	}
	const budget = 0.5
	ratio := float64(engine.BFSVertexVisits) / float64(popTime.BFSVertexVisits)
	t.Logf("SP / pop-time reference over %d constructions (%d aborted): BFS expansions %d / %d = %.2f×",
		engine.TQSPComputations, engine.PrunedDynamicBound, engine.BFSVertexVisits, popTime.BFSVertexVisits, ratio)
	if ratio > budget {
		t.Errorf("SP expands %.2f× the vertices of the pop-time reference, budget %.1f×", ratio, budget)
	}
	slices.Sort(overlap)
	mean := 0.0
	for _, o := range overlap {
		mean += o
	}
	mean /= float64(len(overlap))
	t.Logf("overlap, Σ expansions / distinct vertices expanded per query, over %d queries: mean %.3f×, median %.3f×, p90 %.3f×, max %.3f×",
		len(overlap), mean, overlap[len(overlap)/2], overlap[len(overlap)*9/10], overlap[len(overlap)-1])
}
