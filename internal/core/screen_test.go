package core

import (
	"math/rand"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// refRun is the paper's loop (Algorithms 1 and 4), the reference the
// screen is held to: one candidate at a time from a's stream, Rule 1 as
// each retrieved place is evaluated, Rule 2 inside the BFS, and no
// screen. A place Rule 1 rejects counts as retrieved, as in the paper.
// It ignores Options.Bound, Deadline and Cancel.
func refRun(e *Engine, a Algorithm, q Query, opts Options) ([]Result, *Stats, error) {
	stats := &Stats{}
	alg := &algorithms[a]
	pq, err := e.prepare(q)
	if err != nil {
		return nil, stats, err
	}
	defer e.releasePrep(pq)
	hk := newTopK(q.K, nil)
	if pq.answerable && q.K > 0 {
		if err := refLoop(e, alg, pq, opts, hk, stats); err != nil {
			return nil, stats, err
		}
	}
	res := hk.sorted()
	markExact(res, stats)
	return res, stats, nil
}

func refLoop(e *Engine, alg *algorithm, pq *prepQuery, opts Options, hk *topK, stats *Stats) error {
	rule1, rule2 := alg.rules(e, opts)
	src, err := e.newStream(alg, pq, opts, hk, stats)
	if err != nil {
		return err
	}
	defer src.close()
	s := newSearcher(e, pq, stats, opts.CollectTrees)
	defer s.release()
	for {
		c, ok := src.next()
		if !ok || c.bound >= hk.theta() {
			return nil
		}
		stats.PlacesRetrieved++
		if rule1 && e.unqualified(c.place, pq, stats) {
			continue
		}
		e.evaluate(s, &c, hk, rule2)
		e.offer(hk, &c)
	}
}

// The screen is exact: across random datasets and queries, BSP, SPP and
// SP, with every pruning rule on and with Rule 1 or Rule 2 off, return
// refRun's answer bit for bit, trees included.
func TestScreenedMatchesReference(t *testing.T) {
	configs := []gen.Config{
		gen.DBpediaConfig(1500, 1001),
		gen.YagoConfig(1500, 1002),
	}
	for ci, cfg := range configs {
		g := gen.Generate(cfg)
		qg := gen.NewQueryGen(g, rdf.Outgoing, int64(1010+ci))
		e := NewEngine(g, rdf.Outgoing)
		e.EnableReach()
		e.EnableAlpha(3)

		rng := rand.New(rand.NewSource(int64(1020 + ci)))
		for trial := 0; trial < 4; trial++ {
			m := 1 + rng.Intn(5)
			k := 1 + rng.Intn(8)
			loc, kws := qg.Original(m)
			q := Query{Loc: loc, Keywords: kws, K: k}
			for _, a := range []Algorithm{AlgoBSP, AlgoSPP, AlgoSP} {
				for _, opts := range []Options{{CollectTrees: true}, {CollectTrees: true, NoRule1: true}, {CollectTrees: true, NoRule2: true}} {
					want, _, err := refRun(e, a, q, opts)
					if err != nil {
						t.Fatalf("%s reference %+v: %v", a, opts, err)
					}
					got, _, err := e.Search(a, q, opts)
					if err != nil {
						t.Fatalf("%s %+v: %v", a, opts, err)
					}
					identicalResults(t, a.String(), got, want)
					sameTrees(t, a.String(), got, want)
				}
			}
		}
	}
}

// What the screen buys: on a top-k query the served loop must construct
// no more TQSPs than refRun, and at least minDrop fewer where the screen
// is known to pay. For SPP any screen kill must save a construction; SP's
// stream bound already holds the α place bound, so its screen is Rule 1
// alone. The 12,000-vertex fixtures are those of kspbench -scale 12000
// -seed 1, with the §6.1 workload (|q.ψ| = 5, k = 10, ten queries). Every
// served query also reconciles its counters: each popped candidate is
// screened out or retrieved, and none is deferred. Counts repeat from run
// to run, so the gates need no retries.
func TestScreenReducesConstructions(t *testing.T) {
	type fixture struct {
		cfg   gen.Config
		qSeed int64
		alpha int // 0 leaves the α index off
	}
	small := fixture{gen.YagoConfig(2500, 1040), 1041, 0}
	dbpedia := fixture{gen.DBpediaConfig(12000, 1), 18, 3}
	yago := fixture{gen.YagoConfig(12000, 2), 18, 3}
	cases := []struct {
		name       string
		fx         fixture
		a          Algorithm
		queries, m int
		minDrop    float64 // share of refRun's constructions the screen must save
	}{
		{"SPP/Yago-like-2500", small, AlgoSPP, 8, 3, 0},
		{"SPP/DBpedia-like", dbpedia, AlgoSPP, 10, 5, 0},
		{"SPP/Yago-like", yago, AlgoSPP, 10, 5, 0.2},
		{"SP/DBpedia-like", dbpedia, AlgoSP, 10, 5, 0},
		{"SP/Yago-like", yago, AlgoSP, 10, 5, 0},
	}
	type built struct {
		g *rdf.Graph
		e *Engine
	}
	cache := map[fixture]built{}
	for _, c := range cases {
		b, ok := cache[c.fx]
		if !ok {
			b.g = gen.Generate(c.fx.cfg)
			b.e = NewEngine(b.g, rdf.Outgoing)
			b.e.EnableReach()
			if c.fx.alpha > 0 {
				b.e.EnableAlpha(c.fx.alpha)
			}
			cache[c.fx] = b
		}
		qg := gen.NewQueryGen(b.g, rdf.Outgoing, c.fx.qSeed)
		var refT, servedT, kills int64
		for i := 0; i < c.queries; i++ {
			loc, kws := qg.Original(c.m)
			q := Query{Loc: loc, Keywords: kws, K: 10}
			_, sr, err := refRun(b.e, c.a, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, ss, err := b.e.Search(c.a, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ss.WindowCandidates-ss.WindowScreenKilled != ss.PlacesRetrieved || ss.WindowDeferredKilled != 0 {
				t.Errorf("%s query %d: popped %d, screen kills %d, retrieved %d, deferred %d: want popped − kills = retrieved and no deferral",
					c.name, i, ss.WindowCandidates, ss.WindowScreenKilled, ss.PlacesRetrieved, ss.WindowDeferredKilled)
			}
			refT += sr.TQSPComputations
			servedT += ss.TQSPComputations
			kills += ss.WindowScreenKilled
		}
		if servedT > refT {
			t.Errorf("%s: the screened loop constructed more TQSPs than refRun: %d vs %d", c.name, servedT, refT)
		}
		if c.a == AlgoSPP && kills > 0 && servedT >= refT {
			t.Errorf("%s: kills landed (%d) but constructions did not drop: %d vs %d", c.name, kills, servedT, refT)
		}
		if c.minDrop > 0 && float64(servedT) > (1-c.minDrop)*float64(refT) {
			t.Errorf("%s: the screened loop constructed %d TQSPs, not %.0f%% below refRun's %d", c.name, servedT, 100*c.minDrop, refT)
		}
		n := float64(c.queries)
		t.Logf("%s: TQSPs per query refRun %.1f, screened %.1f (screen kills %d)",
			c.name, float64(refT)/n, float64(servedT)/n, kills)
	}
}
