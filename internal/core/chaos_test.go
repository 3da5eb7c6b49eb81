package core

import (
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"ksp/internal/faultinject"
	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// corePoints are every injection point compiled into the engine; the
// chaos sweep drives a fault through each of them.
var corePoints = []string{
	PointPrepare,
	PointSerialCandidate,
	PointBFS,
	PointWindowFill,
}

func TestChaosPointsRegistered(t *testing.T) {
	have := map[string]bool{}
	for _, p := range faultinject.Points() {
		have[p] = true
	}
	for _, p := range corePoints {
		if !have[p] {
			t.Errorf("point %q not registered", p)
		}
	}
}

// assertSoundPrefix checks the graceful-degradation contract: a partial
// run's Exact-flagged results form a prefix of the result list, each
// matching the exact top-k at the same rank, with scores below the
// reported bound; a non-partial run must be bit-identical to the
// baseline.
func assertSoundPrefix(t *testing.T, name string, got []Result, stats *Stats, want []Result) {
	t.Helper()
	if !stats.Partial {
		identicalResults(t, name, got, want)
		for i := range got {
			if !got[i].Exact {
				t.Fatalf("%s: complete run result %d not marked Exact", name, i)
			}
		}
		return
	}
	inPrefix := true
	for i, r := range got {
		if !r.Exact {
			inPrefix = false
			continue
		}
		if !inPrefix {
			t.Fatalf("%s: Exact result %d follows a degraded one", name, i)
		}
		if r.Score >= stats.ScoreBound {
			t.Fatalf("%s: Exact result %d has score %v >= bound %v", name, i, r.Score, stats.ScoreBound)
		}
		if i >= len(want) {
			t.Fatalf("%s: Exact result at rank %d beyond the exact top-k (%d results)", name, i, len(want))
		}
		if r.Place != want[i].Place || r.Score != want[i].Score {
			t.Fatalf("%s: Exact result %d = {place %d, score %v}, want {place %d, score %v}",
				name, i, r.Place, r.Score, want[i].Place, want[i].Score)
		}
	}
}

// settleGoroutines fails the test if the goroutine count stays above
// its start-of-test level — a query that left a goroutine behind.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestChaos drives every injection point with every fault action —
// panic, stall past the deadline, cancellation — while par queries
// (1 or 4) run at once on the shared engine, asserting the
// blast-radius contract: a panic fails only the query it fired in, with
// *PanicError, and leaves the concurrent ones sound; a stalled or
// cancelled query returns a sound partial answer with no error; nothing
// deadlocks or leaks goroutines; and after Deactivate the engine answers
// exactly again.
func TestChaos(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(900, 41))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 42)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(3)
	q := Query{Loc: loc, Keywords: kws, K: 5}
	want, _, err := e.SP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("baseline query returned nothing; fixture too small")
	}

	type outcome struct {
		got   []Result
		stats *Stats
		err   error
	}
	run := func(name string, par int, plan *faultinject.Plan, check func(t *testing.T, runs []outcome, fired int64)) {
		t.Run(name, func(t *testing.T) {
			// The baseline must be read on this goroutine: the parent
			// test's goroutine is alive for exactly as long as the subtest.
			before := runtime.NumGoroutine()
			faultinject.Activate(plan)
			defer faultinject.Deactivate()
			runs := make([]outcome, par)
			var wg sync.WaitGroup
			for i := range runs {
				wg.Add(1)
				go func(o *outcome) {
					defer wg.Done()
					o.got, o.stats, o.err = e.SP(q, Options{Deadline: 30 * time.Millisecond})
				}(&runs[i])
			}
			wg.Wait()
			faultinject.Deactivate()
			check(t, runs, plan.FiredTotal())
			settleGoroutines(t, before)
		})
	}

	for _, point := range corePoints {
		point := point
		for _, par := range []int{1, 4} {
			par := par
			tag := point + "/par=" + string(rune('0'+par))

			run("panic/"+tag, par, faultinject.NewPlan(1).Add(faultinject.Fault{
				Point: point, Action: faultinject.Panic, Times: 1,
			}), func(t *testing.T, runs []outcome, fired int64) {
				if fired != 1 {
					t.Fatalf("point %s fired %d times on SP's path, want 1", point, fired)
				}
				panicked := 0
				for _, o := range runs {
					var pe *PanicError
					if !errors.As(o.err, &pe) {
						if o.err != nil {
							t.Fatalf("query beside the panic failed: %v", o.err)
						}
						assertSoundPrefix(t, "panic/"+tag, o.got, o.stats, want)
						continue
					}
					panicked++
					var inj *faultinject.Injected
					if !errors.As(o.err, &inj) && !isInjectedValue(pe.Value) {
						t.Fatalf("panic value %v is not the injected marker", pe.Value)
					}
					if o.got != nil {
						t.Fatalf("panicking query leaked results: %v", o.got)
					}
				}
				if panicked != 1 {
					t.Fatalf("%d of %d queries failed with *PanicError, want exactly 1", panicked, len(runs))
				}
			})

			run("stall/"+tag, par, faultinject.NewPlan(2).Add(faultinject.Fault{
				Point: point, Action: faultinject.Stall, StallFor: 15 * time.Millisecond,
			}), func(t *testing.T, runs []outcome, fired int64) {
				for _, o := range runs {
					if o.err != nil {
						t.Fatalf("stalled query failed: %v", o.err)
					}
					assertSoundPrefix(t, "stall/"+tag, o.got, o.stats, want)
				}
			})

			cancel := make(chan struct{})
			var once sync.Once
			run("cancel/"+tag, par, faultinject.NewPlan(3).Add(faultinject.Fault{
				Point: point, Action: faultinject.Call,
				Func: func() { once.Do(func() { close(cancel) }) },
			}), func(t *testing.T, runs []outcome, fired int64) {
				for _, o := range runs {
					if o.err != nil {
						t.Fatalf("cancelled query failed: %v", o.err)
					}
					assertSoundPrefix(t, "cancel/"+tag, o.got, o.stats, want)
				}
			})
		}
	}

	// With every plan deactivated the engine must answer exactly again.
	before := runtime.NumGoroutine()
	got, stats, err := e.SP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Partial {
		t.Fatal("clean run reported Partial")
	}
	identicalResults(t, "clean", got, want)
	settleGoroutines(t, before)
}

func isInjectedValue(v interface{}) bool {
	_, ok := v.(*faultinject.Injected)
	return ok
}

// TestChaosCancelViaOptions wires the injected Call action to the
// query's own Cancel channel, so cancellation lands mid-evaluation at
// each point rather than between queries.
func TestChaosCancelViaOptions(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(900, 43))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 44)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(3)
	q := Query{Loc: loc, Keywords: kws, K: 5}
	want, _, err := e.SP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for _, point := range []string{PointSerialCandidate, PointBFS} {
		cancel := make(chan struct{})
		var once sync.Once
		plan := faultinject.NewPlan(5).Add(faultinject.Fault{
			Point: point, Action: faultinject.Call, AfterN: 2,
			Func: func() { once.Do(func() { close(cancel) }) },
		})
		faultinject.Activate(plan)
		got, stats, err := e.SP(q, Options{Cancel: cancel})
		faultinject.Deactivate()
		if err != nil {
			t.Fatalf("%s: %v", point, err)
		}
		if plan.Fired(point) >= 2 && !stats.Cancelled {
			t.Fatalf("%s: cancel fired but Stats.Cancelled false", point)
		}
		assertSoundPrefix(t, point, got, stats, want)
		settleGoroutines(t, before)
	}
}

// TestChaosCancelMidWindow closes the query's own Cancel channel from
// inside a window fill, so cancellation lands between the bulk pop and
// the evaluation of that window's survivors — the window scheduler must
// still hand back a sound partial prefix and leak nothing. The last fill
// can legitimately precede the final emission (a fully screen-killed
// window ends the stream before any cancel poll), so the Cancelled flag
// is not required, only soundness.
func TestChaosCancelMidWindow(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(900, 45))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 46)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	loc, kws := qg.Original(3)
	q := Query{Loc: loc, Keywords: kws, K: 5}
	want, _, err := e.SP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	for _, win := range []int{0, 2, 64} { // adaptive, tiny, one-shot
		cancel := make(chan struct{})
		var once sync.Once
		plan := faultinject.NewPlan(7).Add(faultinject.Fault{
			Point: PointWindowFill, Action: faultinject.Call, AfterN: 1,
			Func: func() { once.Do(func() { close(cancel) }) },
		})
		faultinject.Activate(plan)
		got, stats, err := e.SP(q, Options{Window: win, Cancel: cancel})
		faultinject.Deactivate()
		if err != nil {
			t.Fatalf("window=%d: %v", win, err)
		}
		assertSoundPrefix(t, "mid-window", got, stats, want)
		settleGoroutines(t, before)
	}
}
