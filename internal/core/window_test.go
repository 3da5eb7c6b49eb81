package core

import (
	"math/rand"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// The tentpole equivalence sweep for windowed scheduling: across random
// datasets and queries, every algorithm under every window size — fixed
// W ∈ {1, 2, 7, 64} and the adaptive policy (0) — must return results
// bit-identical to the seed one-candidate-at-a-time loop (Window: 1),
// trees included.
func TestWindowedMatchesSerial(t *testing.T) {
	configs := []gen.Config{
		gen.DBpediaConfig(1500, 1001),
		gen.YagoConfig(1500, 1002),
	}
	windows := []int{1, 2, 7, 64, 0} // 0 = adaptive
	for ci, cfg := range configs {
		g := gen.Generate(cfg)
		qg := gen.NewQueryGen(g, rdf.Outgoing, int64(1010+ci))
		ref := NewEngine(g, rdf.Outgoing)
		ref.EnableReach()
		ref.EnableAlpha(3)

		rng := rand.New(rand.NewSource(int64(1020 + ci)))
		for trial := 0; trial < 4; trial++ {
			m := 1 + rng.Intn(5)
			k := 1 + rng.Intn(8)
			loc, kws := qg.Original(m)
			q := Query{Loc: loc, Keywords: kws, K: k}
			for _, a := range streamAlgos {
				want, _, err := a.run(ref, q, Options{CollectTrees: true, Window: 1})
				if err != nil {
					t.Fatalf("%s classic loop: %v", a.name, err)
				}
				for _, win := range windows {
					got, _, err := a.run(ref, q, Options{CollectTrees: true, Window: win})
					if err != nil {
						t.Fatalf("%s window=%d: %v", a.name, win, err)
					}
					identicalResults(t, a.name, got, want)
					sameTrees(t, a.name, got, want)
				}
			}
		}
	}
}

// Window counters: the legacy path (Window: 1) must not touch them, a
// windowed run must reconcile them (every candidate is evaluated,
// screen-killed or deferred-killed), and the engine-lifetime totals must
// accumulate across queries.
func TestWindowStatsReconcile(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(1500, 1030))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 1031)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	loc, kws := qg.Original(4)
	q := Query{Loc: loc, Keywords: kws, K: 10}

	_, legacy, err := e.SPP(q, Options{Window: 1})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.WindowsFilled != 0 || legacy.WindowCandidates != 0 ||
		legacy.WindowScreenKilled != 0 || legacy.WindowDeferredKilled != 0 {
		t.Fatalf("Window:1 run touched window counters: %+v", legacy)
	}
	if ws := e.WindowStats(); ws != (WindowStats{}) {
		t.Fatalf("lifetime totals non-zero before any windowed query: %+v", ws)
	}

	_, stats, err := e.SPP(q, Options{}) // adaptive default
	if err != nil {
		t.Fatal(err)
	}
	if stats.WindowsFilled == 0 || stats.WindowCandidates == 0 {
		t.Fatalf("windowed run recorded no fills: %+v", stats)
	}
	dead := stats.WindowScreenKilled + stats.WindowDeferredKilled
	if dead > stats.WindowCandidates {
		t.Fatalf("more kills (%d) than candidates (%d)", dead, stats.WindowCandidates)
	}
	// Evaluated candidates are exactly the ones the loop retrieved.
	if ev := stats.WindowCandidates - dead; ev != stats.PlacesRetrieved {
		t.Fatalf("evaluated %d != PlacesRetrieved %d", ev, stats.PlacesRetrieved)
	}

	ws := e.WindowStats()
	if ws.Fills != stats.WindowsFilled || ws.Candidates != stats.WindowCandidates ||
		ws.ScreenKilled != stats.WindowScreenKilled || ws.DeferredKilled != stats.WindowDeferredKilled {
		t.Fatalf("lifetime totals %+v don't match the query stats %+v", ws, stats)
	}
}

// The point of the scheduler: on a top-k query the adaptive window must
// construct no more TQSPs than the seed serial loop, and at least minDrop
// fewer where the window is known to pay. For SPP any screen or deferred
// kill must save a construction. SP's kills need not: nearly all are the
// window's leftovers when θ ends the loop, places the serial loop never
// pops either. The 12,000-vertex fixtures are those of kspbench -scale
// 12000 -seed 1, with the §6.1 workload (|q.ψ| = 5, k = 10, ten
// queries). Counts repeat from run to run, so the gates need no retries.
func TestWindowReducesConstructions(t *testing.T) {
	type fixture struct {
		cfg   gen.Config
		qSeed int64
		alpha int // 0 leaves the α index off
	}
	small := fixture{gen.YagoConfig(2500, 1040), 1041, 0}
	dbpedia := fixture{gen.DBpediaConfig(12000, 1), 18, 3}
	yago := fixture{gen.YagoConfig(12000, 2), 18, 3}
	spp, sp := streamAlgos[1], streamAlgos[2]
	cases := []struct {
		name       string
		fx         fixture
		a          algo
		queries, m int
		minDrop    float64 // share of Window 1's constructions adaptive must save
	}{
		{"SPP/Yago-like-2500", small, spp, 8, 3, 0},
		{"SPP/DBpedia-like", dbpedia, spp, 10, 5, 0},
		{"SPP/Yago-like", yago, spp, 10, 5, 0.2},
		{"SP/DBpedia-like", dbpedia, sp, 10, 5, 0},
		{"SP/Yago-like", yago, sp, 10, 5, 0},
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
		var serialT, windowT, screened, deferred int64
		for i := 0; i < c.queries; i++ {
			loc, kws := qg.Original(c.m)
			q := Query{Loc: loc, Keywords: kws, K: 10}
			_, s1, err := c.a.run(b.e, q, Options{Window: 1})
			if err != nil {
				t.Fatal(err)
			}
			_, sw, err := c.a.run(b.e, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			serialT += s1.TQSPComputations
			windowT += sw.TQSPComputations
			screened += sw.WindowScreenKilled
			deferred += sw.WindowDeferredKilled
		}
		if windowT > serialT {
			t.Errorf("%s: adaptive window constructed more TQSPs than Window 1: %d vs %d", c.name, windowT, serialT)
		}
		if kills := screened + deferred; c.a.name == "SPP" && kills > 0 && windowT >= serialT {
			t.Errorf("%s: kills landed (%d) but constructions did not drop: %d vs %d", c.name, kills, windowT, serialT)
		}
		if c.minDrop > 0 && float64(windowT) > (1-c.minDrop)*float64(serialT) {
			t.Errorf("%s: adaptive constructed %d TQSPs, not %.0f%% below Window 1's %d", c.name, windowT, 100*c.minDrop, serialT)
		}
		n := float64(c.queries)
		t.Logf("%s: TQSPs per query Window 1 %.1f, adaptive %.1f (screen kills %d, deferred %d)",
			c.name, float64(serialT)/n, float64(windowT)/n, screened, deferred)
	}
}

// resolveWindow's mapping from Options.Window to size and policy.
func TestResolveWindow(t *testing.T) {
	cases := []struct {
		in       int
		w        int
		adaptive bool
	}{
		{1, 1, false},
		{2, 2, false},
		{64, 64, false},
		{0, windowInit, true},
		{-1, windowInit, true},
	}
	for _, c := range cases {
		w, adaptive := resolveWindow(Options{Window: c.in})
		if w != c.w || adaptive != c.adaptive {
			t.Errorf("resolveWindow(%d) = (%d, %v), want (%d, %v)", c.in, w, adaptive, c.w, c.adaptive)
		}
	}
}
