package core

import (
	"math/rand"
	"sync"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// identicalResults demands bit-identical answers — the parallel pipeline
// promises exact serial semantics, not approximate agreement, so no
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

// pipelineAlgos are the algorithms the parallel pipeline covers (TA is
// always serial).
var pipelineAlgos = []algo{
	{"BSP", (*Engine).BSP},
	{"SPP", (*Engine).SPP},
	{"SP", (*Engine).SP},
}

// The tentpole equivalence sweep: across random datasets, every
// pipelined algorithm with Parallelism ∈ {2, 4, 8}, with and without the
// looseness cache, must return results bit-identical to the serial,
// cacheless run — including materialized trees.
func TestParallelMatchesSerial(t *testing.T) {
	configs := []gen.Config{
		gen.DBpediaConfig(1500, 901),
		gen.YagoConfig(1500, 902),
	}
	for ci, cfg := range configs {
		g := gen.Generate(cfg)
		qg := gen.NewQueryGen(g, rdf.Outgoing, int64(910+ci))
		// serial reference engine: no cache, so the reference is the
		// untouched classic path.
		ref := NewEngine(g, rdf.Outgoing)
		ref.EnableReach()
		ref.EnableAlpha(3)
		cached := NewEngine(g, rdf.Outgoing)
		cached.EnableReach()
		cached.EnableAlpha(3)
		cached.EnableLoosenessCache(0)

		rng := rand.New(rand.NewSource(int64(920 + ci)))
		for trial := 0; trial < 6; trial++ {
			m := 1 + rng.Intn(5)
			k := 1 + rng.Intn(8)
			loc, kws := qg.Original(m)
			q := Query{Loc: loc, Keywords: kws, K: k}
			for _, a := range pipelineAlgos {
				want, _, err := a.run(ref, q, Options{CollectTrees: true})
				if err != nil {
					t.Fatalf("%s serial: %v", a.name, err)
				}
				for _, e := range []*Engine{ref, cached} {
					for _, par := range []int{2, 4, 8} {
						got, _, err := a.run(e, q, Options{CollectTrees: true, Parallelism: par})
						if err != nil {
							t.Fatalf("%s par=%d: %v", a.name, par, err)
						}
						identicalResults(t, a.name, got, want)
						sameTrees(t, a.name, got, want)
					}
					// Serial with cache must also match.
					got, _, err := a.run(e, q, Options{CollectTrees: true})
					if err != nil {
						t.Fatal(err)
					}
					identicalResults(t, a.name+"-serial", got, want)
					sameTrees(t, a.name+"-serial", got, want)
				}
			}
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

// Negative Parallelism resolves to GOMAXPROCS; zero and one stay serial.
func TestParallelismResolution(t *testing.T) {
	if (Options{Parallelism: 0}).workers() != 1 {
		t.Error("0 should mean serial")
	}
	if (Options{Parallelism: 1}).workers() != 1 {
		t.Error("1 should mean serial")
	}
	if (Options{Parallelism: 6}).workers() != 6 {
		t.Error("explicit count ignored")
	}
	if (Options{Parallelism: -1}).workers() < 1 {
		t.Error("negative should resolve to at least one worker")
	}
}

// The looseness cache must repay repeated queries — exact hits on the
// second identical query — while never changing answers, and its
// counters must reconcile.
func TestLoosenessCacheHitsAndStats(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(1200, 930))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 931)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableLoosenessCache(1 << 12)
	if _, ok := e.CacheStats(); !ok {
		t.Fatal("cache should report enabled")
	}
	loc, kws := qg.Original(3)
	q := Query{Loc: loc, Keywords: kws, K: 5}

	first, s1, err := e.SPP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s1.CacheHits != 0 {
		t.Errorf("first run should have no exact hits, got %d", s1.CacheHits)
	}
	if s1.CacheMisses == 0 {
		t.Error("first run should record misses")
	}
	second, s2, err := e.SPP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "SPP-cached-repeat", second, first)
	if s2.CacheHits == 0 {
		t.Error("repeat run should score exact hits")
	}
	if s2.TQSPComputations >= s1.TQSPComputations {
		t.Errorf("repeat run should construct fewer TQSPs: %d vs %d", s2.TQSPComputations, s1.TQSPComputations)
	}
	cs, ok := e.CacheStats()
	if !ok || cs.Entries == 0 {
		t.Fatalf("cache stats: %+v ok=%v", cs, ok)
	}
	if cs.Hits != s1.CacheHits+s2.CacheHits || cs.Misses != s1.CacheMisses+s2.CacheMisses {
		t.Errorf("engine counters %+v don't reconcile with per-query stats", cs)
	}
	if cs.HitRate() <= 0 || cs.HitRate() > 1 {
		t.Errorf("hit rate %v out of range", cs.HitRate())
	}

	// A disabled engine reports no cache.
	bare := NewEngine(g, rdf.Outgoing)
	if _, ok := bare.CacheStats(); ok {
		t.Error("bare engine should report no cache")
	}
}

// Cached exact +Inf (unqualified place) and Rule-2 lower bounds must not
// leak wrong answers across queries with different thresholds or
// locations: sweep many query locations over the same keyword set so
// later queries hit entries written under other thresholds.
func TestLoosenessCacheCrossQuerySoundness(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(1200, 940))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 941)
	ref := NewEngine(g, rdf.Outgoing)
	ref.EnableReach()
	cached := NewEngine(g, rdf.Outgoing)
	cached.EnableReach()
	cached.EnableLoosenessCache(1 << 12)

	_, kws := qg.Original(3)
	for trial := 0; trial < 12; trial++ {
		loc, _ := qg.Original(1)
		q := Query{Loc: loc, Keywords: kws, K: 1 + trial%6}
		want, _, err := ref.SPP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := cached.SPP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, "SPP-crossquery", got, want)
	}
}

// Concurrent queries sharing one looseness cache: run under -race. Mixed
// serial and parallel executions, repeated keyword sets so cache entries
// are read, written and merged concurrently; all answers must match the
// cacheless serial reference.
func TestConcurrentCacheSharingStress(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(1200, 950))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 951)
	ref := NewEngine(g, rdf.Outgoing)
	ref.EnableReach()
	ref.EnableAlpha(3)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	e.EnableLoosenessCache(1 << 10) // small: force concurrent eviction too

	type job struct {
		q    Query
		want []Result
	}
	jobs := make([]job, 4) // few distinct queries → heavy key collision
	for i := range jobs {
		loc, kws := qg.Original(3)
		q := Query{Loc: loc, Keywords: kws, K: 4}
		want, _, err := ref.SP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{q: q, want: want}
	}

	var wg sync.WaitGroup
	errs := make(chan string, 256)
	for rep := 0; rep < 6; rep++ {
		for ji, j := range jobs {
			for _, a := range pipelineAlgos {
				wg.Add(1)
				go func(j job, a algo, par int) {
					defer wg.Done()
					got, _, err := a.run(e, j.q, Options{Parallelism: par})
					if err != nil {
						errs <- err.Error()
						return
					}
					if len(got) != len(j.want) {
						errs <- a.name + ": length mismatch"
						return
					}
					for i := range got {
						if got[i].Place != j.want[i].Place || got[i].Score != j.want[i].Score {
							errs <- a.name + ": result mismatch"
							return
						}
					}
				}(j, a, []int{1, 2, 4}[(rep+ji)%3])
			}
		}
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
}

// Options.Cancel must abort evaluation promptly and set the flag, for
// serial and parallel runs, leaving the engine usable.
func TestCancelAllAlgorithms(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(2000, 960))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 961)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(5)
	q := Query{Loc: loc, Keywords: kws, K: 10}
	done := make(chan struct{})
	close(done) // already cancelled: the first poll must fire
	for _, par := range []int{0, 4} {
		for _, a := range allAlgos {
			_, stats, err := a.run(e, q, Options{Cancel: done, Parallelism: par})
			if err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
			if a.name == "TA" && par > 0 {
				continue // TA is always serial; covered by par=0
			}
			if !stats.Cancelled {
				t.Errorf("%s par=%d: expected Cancelled flag", a.name, par)
			}
			res, _, err := a.run(e, q, Options{Parallelism: par})
			if err != nil || len(res) == 0 {
				t.Errorf("%s after cancel: %v results, err %v", a.name, len(res), err)
			}
		}
	}
}

// Deadlines must also hold on the parallel path.
func TestParallelDeadline(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(2000, 970))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 971)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(5)
	q := Query{Loc: loc, Keywords: kws, K: 10}
	for _, a := range pipelineAlgos {
		_, stats, err := a.run(e, q, Options{Deadline: 1, Parallelism: 4})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !stats.TimedOut {
			t.Errorf("%s: expected timeout flag", a.name)
		}
		res, _, err := a.run(e, q, Options{Parallelism: 4})
		if err != nil || len(res) == 0 {
			t.Errorf("%s after timeout: %v results, err %v", a.name, len(res), err)
		}
	}
}

// MaxDist and ablation options must compose with the parallel pipeline.
func TestParallelWithOptions(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(1200, 980))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 981)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(3)
	q := Query{Loc: loc, Keywords: kws, K: 5}
	variants := []Options{
		{MaxDist: 20},
		{NoRule1: true},
		{NoRule2: true},
	}
	for _, a := range pipelineAlgos {
		for vi, base := range variants {
			want, _, err := a.run(e, q, base)
			if err != nil {
				t.Fatal(err)
			}
			par := base
			par.Parallelism = 3
			got, _, err := a.run(e, q, par)
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, a.name, got, want)
			_ = vi
		}
	}
}

// Serial vs parallel SP benchmarks (the ISSUE's speedup experiment rides
// in internal/bench; this is the micro view).
func benchSP(b *testing.B, par int, cache bool) {
	e, qg := benchEngine(b, gen.DBpediaConfig)
	if cache {
		e.EnableLoosenessCache(0)
	}
	queries := make([]Query, 16)
	for i := range queries {
		loc, kws := qg.Original(5)
		queries[i] = Query{Loc: loc, Keywords: kws, K: 5}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := e.SP(queries[i%len(queries)], Options{Parallelism: par}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSPSerial(b *testing.B)          { benchSP(b, 0, false) }
func BenchmarkSPParallel2(b *testing.B)       { benchSP(b, 2, false) }
func BenchmarkSPParallel4(b *testing.B)       { benchSP(b, 4, false) }
func BenchmarkSPSerialCached(b *testing.B)    { benchSP(b, 0, true) }
func BenchmarkSPParallel4Cached(b *testing.B) { benchSP(b, 4, true) }
