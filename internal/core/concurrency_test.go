package core

import (
	"math"
	"sync"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// Engines are read-only after construction; concurrent queries (all four
// algorithms at once, from many goroutines) must race-free produce the
// same answers as a serial run — same places, scores and loosenesses, to
// the bit. Run with -race to verify.
func TestConcurrentQueries(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(1200, 303))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 304)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)

	type job struct {
		q    Query
		want []Result
	}
	jobs := make([]job, 6)
	for i := range jobs {
		loc, kws := qg.Original(3)
		q := Query{Loc: loc, Keywords: kws, K: 4}
		want, _, err := e.SP(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		jobs[i] = job{q: q, want: want}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(jobs)*4*4)
	for rep := 0; rep < 4; rep++ {
		for _, j := range jobs {
			for _, a := range allAlgos {
				wg.Add(1)
				go func(j job, a algo) {
					defer wg.Done()
					got, _, err := a.run(e, j.q, Options{})
					if err != nil {
						errs <- err
						return
					}
					if len(got) != len(j.want) {
						errs <- errMismatch
						return
					}
					for i, w := range j.want {
						g := got[i]
						if g.Place != w.Place ||
							math.Float64bits(g.Score) != math.Float64bits(w.Score) ||
							math.Float64bits(g.Looseness) != math.Float64bits(w.Looseness) {
							errs <- errMismatch
							return
						}
					}
				}(j, a)
			}
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Options.Cancel must abort evaluation promptly and set the flag,
// leaving the engine usable.
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
	for _, a := range allAlgos {
		_, stats, err := a.run(e, q, Options{Cancel: done})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if !stats.Cancelled {
			t.Errorf("%s: expected Cancelled flag", a.name)
		}
		res, _, err := a.run(e, q, Options{})
		if err != nil || len(res) == 0 {
			t.Errorf("%s after cancel: %v results, err %v", a.name, len(res), err)
		}
	}
}

var errMismatch = &mismatchError{}

type mismatchError struct{}

func (*mismatchError) Error() string { return "concurrent result mismatch" }
