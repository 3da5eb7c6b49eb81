package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/geo"
	"ksp/internal/rdf"
)

// bruteForce computes the exact top-k by running an unbounded BFS from
// every place: the reference the four algorithms must agree with.
func bruteForce(e *Engine, q Query) []Result {
	terms := make([]uint32, 0, len(q.Keywords))
	seen := map[uint32]bool{}
	for _, kw := range q.Keywords {
		id, ok := e.G.Vocab.Lookup(kw)
		if !ok {
			return nil
		}
		if !seen[id] {
			seen[id] = true
			terms = append(terms, id)
		}
	}
	bfs := rdf.NewBFSState(e.G)
	var all []Result
	for _, p := range e.G.Places() {
		dist := make(map[uint32]int)
		for _, t := range terms {
			dist[t] = -1
		}
		remaining := len(terms)
		bfs.Run(p, e.Dir, -1, func(v uint32, d int) bool {
			for _, t := range terms {
				if dist[t] == -1 && e.G.HasTerm(v, t) {
					dist[t] = d
					remaining--
				}
			}
			return remaining > 0
		})
		if remaining > 0 {
			continue
		}
		loose := 1.0
		for _, t := range terms {
			loose += float64(dist[t])
		}
		s := q.Loc.Dist(e.G.Loc(p))
		all = append(all, Result{Place: p, Looseness: loose, Dist: s, Score: e.Rank.Score(loose, s)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score < all[j].Score
		}
		return all[i].Place < all[j].Place
	})
	if len(all) > q.K {
		all = all[:q.K]
	}
	return all
}

func sameResults(t *testing.T, name string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot:  %+v\nwant: %+v", name, len(got), len(want), got, want)
	}
	for i := range want {
		if got[i].Place != want[i].Place ||
			math.Abs(got[i].Looseness-want[i].Looseness) > 1e-9 ||
			math.Abs(got[i].Score-want[i].Score) > 1e-9 {
			t.Fatalf("%s: result %d = %+v, want %+v", name, i, got[i], want[i])
		}
	}
}

// identicalResults demands bit-identical answers — two evaluations of
// the same query (screened and reference, concurrent and alone, sharded
// and whole) promise the same answer, not approximate agreement, so no
// epsilon is allowed (contrast sameResults, which tolerates float noise
// against the brute-force reference).
func identicalResults(t *testing.T, name string, got, want []Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d\ngot:  %+v\nwant: %+v", name, len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Place != w.Place || g.Looseness != w.Looseness || g.Dist != w.Dist || g.Score != w.Score {
			t.Fatalf("%s: result %d = %+v, want %+v", name, i, g, w)
		}
	}
}

func sameTrees(t *testing.T, name string, got, want []Result) {
	t.Helper()
	for i := range want {
		gt, wt := got[i].Tree, want[i].Tree
		if (gt == nil) != (wt == nil) {
			t.Fatalf("%s: result %d tree presence mismatch", name, i)
		}
		if gt == nil {
			continue
		}
		if gt.Root != wt.Root || len(gt.Nodes) != len(wt.Nodes) {
			t.Fatalf("%s: result %d tree shape mismatch: %+v vs %+v", name, i, gt, wt)
		}
		for j := range wt.Nodes {
			if gt.Nodes[j].V != wt.Nodes[j].V || gt.Nodes[j].Parent != wt.Nodes[j].Parent || gt.Nodes[j].Depth != wt.Nodes[j].Depth {
				t.Fatalf("%s: result %d tree node %d mismatch", name, i, j)
			}
		}
	}
}

// All four algorithms must return the exact brute-force top-k on randomly
// generated datasets and workloads — for every α, both dataset shapes, and
// several k and |q.ψ| values.
func TestAlgorithmsMatchBruteForce(t *testing.T) {
	configs := []gen.Config{
		gen.DBpediaConfig(1500, 101),
		gen.YagoConfig(1500, 102),
	}
	for ci, cfg := range configs {
		g := gen.Generate(cfg)
		qg := gen.NewQueryGen(g, rdf.Outgoing, int64(200+ci))
		for _, alphaRadius := range []int{1, 3} {
			e := NewEngine(g, rdf.Outgoing)
			e.EnableReach()
			e.EnableAlpha(alphaRadius)
			rng := rand.New(rand.NewSource(int64(300 + ci)))
			for trial := 0; trial < 8; trial++ {
				m := 1 + rng.Intn(5)
				k := 1 + rng.Intn(8)
				loc, kws := qg.Original(m)
				q := Query{Loc: loc, Keywords: kws, K: k}
				want := bruteForce(e, q)
				for _, a := range allAlgos {
					got, _, err := a.run(e, q, Options{})
					if err != nil {
						t.Fatalf("%s: %v", a.name, err)
					}
					sameResults(t, a.name, got, want)
				}
			}
		}
	}
}

// Hard (SDLL/LDLL) queries stress the bounds differently; all algorithms
// must still agree with brute force.
func TestHardQueriesMatchBruteForce(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(1200, 55))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 77)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	for trial := 0; trial < 4; trial++ {
		for _, hard := range []func(int) (geo.Point, []string){qg.SDLL, qg.LDLL} {
			loc, kws := hard(3)
			q := Query{Loc: loc, Keywords: kws, K: 5}
			want := bruteForce(e, q)
			for _, a := range allAlgos {
				got, _, err := a.run(e, q, Options{})
				if err != nil {
					t.Fatalf("%s: %v", a.name, err)
				}
				sameResults(t, a.name, got, want)
			}
		}
	}
}

// The undirected traversal variant (the paper's future-work definition)
// must also be consistent across algorithms.
func TestUndirectedConsistency(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(800, 31))
	qg := gen.NewQueryGen(g, rdf.Undirected, 41)
	e := NewEngine(g, rdf.Undirected)
	e.EnableReach()
	e.EnableAlpha(2)
	for trial := 0; trial < 5; trial++ {
		loc, kws := qg.Original(3)
		q := Query{Loc: loc, Keywords: kws, K: 4}
		want := bruteForce(e, q)
		for _, a := range allAlgos {
			got, _, err := a.run(e, q, Options{})
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			sameResults(t, a.name, got, want)
		}
	}
}

// Options.MaxDist must behave as a pure filter: the results equal the
// unrestricted brute-force top-k restricted to the radius — identically
// across all four algorithms.
func TestMaxDistConsistency(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(1200, 701))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 702)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	for trial := 0; trial < 6; trial++ {
		loc, kws := qg.Original(3)
		q := Query{Loc: loc, Keywords: kws, K: 5}
		radius := 5.0 + float64(trial)*5
		// Reference: brute force, filtered by radius, top-k.
		all := bruteForce(e, Query{Loc: loc, Keywords: kws, K: 1 << 20})
		var want []Result
		for _, r := range all {
			if r.Dist <= radius {
				want = append(want, r)
			}
		}
		if len(want) > q.K {
			want = want[:q.K]
		}
		for _, a := range allAlgos {
			got, _, err := a.run(e, q, Options{MaxDist: radius})
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			sameResults(t, a.name+"-maxdist", got, want)
		}
	}
}

// Ablations must not change answers, only costs: disabling pruning rules
// leaves the result set identical.
func TestAblationsPreserveResults(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(1000, 61))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 71)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	for trial := 0; trial < 5; trial++ {
		loc, kws := qg.Original(4)
		q := Query{Loc: loc, Keywords: kws, K: 5}
		base, _, err := e.SPP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{{NoRule1: true}, {NoRule2: true}, {NoRule1: true, NoRule2: true}} {
			got, _, err := e.SPP(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "SPP-ablated", got, base)
			got, _, err = e.SP(q, opts)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, "SP-ablated", got, base)
		}
	}
}

// Pruning effectiveness, directionally: SP must do no more TQSP
// computations than SPP, which must do no more than BSP completes — on
// aggregate over a workload (the paper's Figures 3(b) and 4(b) shape).
func TestPruningReducesWork(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(2500, 81))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 91)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	var bspT, sppT, spT int64
	var bspN, spN int64
	for trial := 0; trial < 10; trial++ {
		loc, kws := qg.Original(5)
		q := Query{Loc: loc, Keywords: kws, K: 5}
		_, s1, err := e.BSP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, s2, err := e.SPP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		_, s3, err := e.SP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		bspT += s1.TQSPComputations
		sppT += s2.TQSPComputations
		spT += s3.TQSPComputations
		bspN += s1.RTreeNodeAccesses
		spN += s3.RTreeNodeAccesses
	}
	if sppT > bspT {
		t.Errorf("SPP TQSP computations (%d) exceed BSP's (%d)", sppT, bspT)
	}
	if spT > sppT {
		t.Errorf("SP TQSP computations (%d) exceed SPP's (%d)", spT, sppT)
	}
	if spN > bspN {
		t.Errorf("SP node accesses (%d) exceed BSP's (%d)", spN, bspN)
	}
}

// KeywordTopK (location-free keyword search) must equal a brute-force
// looseness ranking over all places.
func TestKeywordTopKMatchesBruteForce(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(900, 401))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 402)
	e := NewEngine(g, rdf.Outgoing)
	for trial := 0; trial < 6; trial++ {
		_, kws := qg.Original(3)
		k := 1 + trial
		got, _, err := e.KeywordTopK(kws, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Brute force: looseness of every place, ranked ascending.
		saved := e.Rank
		e.Rank = looseOnlyRank{}
		want := bruteForce(e, Query{Keywords: kws, K: k})
		e.Rank = saved
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Looseness != want[i].Looseness {
				t.Fatalf("trial %d result %d: L=%v want %v", trial, i, got[i].Looseness, want[i].Looseness)
			}
		}
	}
}

// looseOnlyRank scores by looseness alone, making bruteForce rank the way
// KeywordTopK does.
type looseOnlyRank struct{}

func (looseOnlyRank) Score(l, s float64) float64               { return l }
func (looseOnlyRank) MinScore(s float64) float64               { return 1 }
func (looseOnlyRank) LoosenessThreshold(th, s float64) float64 { return th }

// More than 64 distinct resolvable keywords must be rejected (coverage is
// tracked in a 64-bit mask).
func TestTooManyDistinctKeywords(t *testing.T) {
	b := rdf.NewBuilder()
	v := b.AddBareVertex("v")
	kws := make([]string, 70)
	for i := range kws {
		kws[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
		b.AddTermID(v, b.Vocab.ID(kws[i]))
	}
	b.SetLocation(v, geo.Point{})
	e := NewEngine(b.Build(), rdf.Outgoing)
	if _, _, err := e.BSP(Query{Keywords: kws, K: 1}, Options{}); err == nil {
		t.Fatal("expected error for >64 keywords")
	}
	// 64 exactly is fine.
	if _, _, err := e.BSP(Query{Keywords: kws[:64], K: 1}, Options{}); err != nil {
		t.Fatalf("64 keywords should work: %v", err)
	}
}

// Deadlines must be honoured by every algorithm without corrupting state.
func TestDeadlineAllAlgorithms(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(2000, 801))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 802)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(5)
	q := Query{Loc: loc, Keywords: kws, K: 10}
	for _, a := range allAlgos {
		_, stats, err := a.run(e, q, Options{Deadline: 1}) // 1ns
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !stats.TimedOut {
			t.Errorf("%s: expected timeout flag", a.name)
		}
		// The engine stays usable afterwards.
		res, _, err := a.run(e, q, Options{})
		if err != nil || len(res) == 0 {
			t.Errorf("%s after timeout: %v results, err %v", a.name, len(res), err)
		}
	}
}

// Stats sanity: counters populated, times non-negative.
func TestStatsPopulated(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(1000, 21))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 22)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(3)
	q := Query{Loc: loc, Keywords: kws, K: 3}
	_, stats, err := e.SPP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.ReachQueries == 0 {
		t.Error("SPP should issue reachability queries")
	}
	if stats.SemanticTime < 0 || stats.OtherTime < 0 {
		t.Error("negative timings")
	}
	if stats.TotalTime() != stats.SemanticTime+stats.OtherTime {
		t.Error("TotalTime mismatch")
	}
	var agg Stats
	agg.Add(stats)
	agg.Add(stats)
	if agg.ReachQueries != 2*stats.ReachQueries {
		t.Error("Stats.Add broken")
	}
}

func TestTopKHelper(t *testing.T) {
	tk := newTopK(2, nil)
	if !math.IsInf(tk.theta(), 1) {
		t.Error("theta should start at +Inf")
	}
	tk.add(Result{Place: 1, Score: 5})
	if !math.IsInf(tk.theta(), 1) {
		t.Error("theta stays +Inf below k results")
	}
	tk.add(Result{Place: 2, Score: 3})
	if tk.theta() != 5 {
		t.Errorf("theta = %v, want 5", tk.theta())
	}
	tk.add(Result{Place: 3, Score: 4})
	if tk.theta() != 4 {
		t.Errorf("theta = %v, want 4 after eviction", tk.theta())
	}
	out := tk.sorted()
	if len(out) != 2 || out[0].Place != 2 || out[1].Place != 3 {
		t.Errorf("sorted = %+v", out)
	}
}

func TestRankingFunctions(t *testing.T) {
	p := ProductRanking{}
	if p.Score(4, 1.5) != 6 || p.MinScore(2) != 2 {
		t.Error("product ranking wrong")
	}
	if p.LoosenessThreshold(6, 2) != 3 {
		t.Error("product threshold wrong")
	}
	if !math.IsInf(p.LoosenessThreshold(6, 0), 1) {
		t.Error("zero-distance threshold must be +Inf")
	}
	w := WeightedSumRanking{Beta: 0.25}
	if w.Score(4, 8) != 0.25*4+0.75*8 {
		t.Error("weighted score wrong")
	}
	if got := w.LoosenessThreshold(w.Score(4, 8), 8); math.Abs(got-4) > 1e-12 {
		t.Errorf("weighted threshold = %v, want 4", got)
	}
	if w.MinScore(8) != 0.25+6 {
		t.Error("weighted MinScore wrong")
	}
	z := WeightedSumRanking{Beta: 0}
	if !math.IsInf(z.LoosenessThreshold(1, 1), 1) {
		t.Error("beta=0 threshold must be +Inf")
	}
}
