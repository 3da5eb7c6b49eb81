package bench

import (
	"io"
	"runtime"
	"testing"

	"ksp/internal/core"
)

// Steady-state allocation budget for the SP hot path on the Yago-like
// workload. Before the flat memory layout (flat posting views, pooled
// QueryView scratch, flat URI table, boxing-free spHeap) this workload
// allocated ~1052.9 objects and ~332 KB per query; with the SP frontier
// pooled, the keywords' document postings borrowed and their α columns
// read in place it sits at 41.4 allocs and ~3.7 KB (3,702 bytes); Mq.ψ as
// per-keyword bitsets, pooled before and after, left both figures where
// they were. The budgets below leave headroom for CI noise, a pool the
// collector emptied mid-run (the frontier regrows to ~100 KB once, the BFS
// scratch to ~32 KB; a refilled Mq.ψ is a few KB of scratch bitsets, no
// longer 12 bytes per vertex) and incidental growth, but fail hard if
// interface boxing, per-query map construction or a per-query copy of a
// posting list sneaks back into the hot path.
const (
	allocBudgetPerQuery = 200   // current steady state ≈ 41.4
	bytesBudgetPerQuery = 16000 // current steady state ≈ 3.7 KB
)

func TestAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget needs the full Yago-like fixture")
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
	d := s.Data(YagoLike)
	e := d.engine(3)
	qs := d.workload(classO, 30, 3, 10)

	run := func() {
		for _, q := range qs {
			if _, _, err := e.SP(q, core.Options{}); err != nil {
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
	t.Logf("steady state: %.1f allocs/query, %.1f bytes/query", allocs, bytes)
	if allocs > allocBudgetPerQuery {
		t.Errorf("SP hot path allocates %.1f objects/query, budget %d", allocs, allocBudgetPerQuery)
	}
	if bytes > bytesBudgetPerQuery {
		t.Errorf("SP hot path allocates %.1f bytes/query, budget %d", bytes, bytesBudgetPerQuery)
	}
}
