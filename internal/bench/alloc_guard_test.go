package bench

import (
	"io"
	"runtime"
	"testing"

	"ksp/internal/core"
)

// Steady-state allocation budgets of the three engine algorithms on both
// generators, per query. SP sits at 23.3 allocs and ~2.8 KB a query on
// both (the frontier, BFS scratch, Mq.ψ and α query view are pooled; the
// keywords' postings and α columns are read in place). SPP and BSP browse
// the R-tree with a browser whose heap grows afresh each query, hence
// their 10–19 KB. The counts repeat from run to run, the bytes to within
// a few bytes.
//
// Each allocation budget is the steady state plus 5, rounded up: one
// allocation per popped candidate fails it. Each bytes budget leaves
// ~13 KB over the steady state: room for a pool the collector emptied
// mid-run (the frontier regrows to ~100 KB once, the BFS scratch to
// ~32 KB; a refilled Mq.ψ is a few KB of scratch bitsets), spread over
// the run's 30 queries. A per-query map, interface boxing or copy of a
// posting list fails it.
var allocBudgets = []struct {
	data   string
	algo   string
	run    func(*core.Engine, core.Query, core.Options) ([]core.Result, *core.Stats, error)
	allocs float64
	bytes  float64
}{
	{YagoLike, "SP", (*core.Engine).SP, 29, 16000},      // steady state 23.3, 2,760 B
	{YagoLike, "SPP", (*core.Engine).SPP, 40, 31000},    // 34.1, 17,806 B
	{YagoLike, "BSP", (*core.Engine).BSP, 40, 32000},    // 34.1, 18,978 B
	{DBpediaLike, "SP", (*core.Engine).SP, 29, 16000},   // 23.3, 2,754 B
	{DBpediaLike, "SPP", (*core.Engine).SPP, 38, 23000}, // 32.9, 9,743 B
	{DBpediaLike, "BSP", (*core.Engine).BSP, 38, 24000}, // 33.0, 10,285 B
}

func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs the full generated fixtures")
	}
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI's bench-guard job runs this race-free")
	}
	// sync.Pool keeps a cache per P: on one P the warm-up run below primes
	// every pool the measured run draws from. With more, a goroutine that
	// changes P mid-run primes the other P's (a few hundred KB, once),
	// which is start-up cost, not steady state.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := NewSuite(8000, 0, 1, io.Discard)
	for _, b := range allocBudgets {
		d := s.Data(b.data)
		e := d.engine(3)
		qs := d.workload(classO, 30, 3, 10)
		run := func() {
			for _, q := range qs {
				if _, _, err := b.run(e, q, core.Options{}); err != nil {
					t.Fatal(err)
				}
			}
		}
		run() // warm pools and caches

		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		run()
		runtime.ReadMemStats(&m1)

		n := float64(len(qs))
		allocs := float64(m1.Mallocs-m0.Mallocs) / n
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / n
		t.Logf("%s on %s steady state: %.1f allocs/query, %.1f bytes/query", b.algo, b.data, allocs, bytes)
		if allocs > b.allocs {
			t.Errorf("%s on %s allocates %.1f objects/query, budget %.0f", b.algo, b.data, allocs, b.allocs)
		}
		if bytes > b.bytes {
			t.Errorf("%s on %s allocates %.1f bytes/query, budget %.0f", b.algo, b.data, bytes, b.bytes)
		}
	}
}
