package core

import (
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// TestExplainRulesMatchRun holds EXPLAIN's rule flags to the run they
// describe: for every algorithm × {default, NoRule1, NoRule2}, on
// engines with and without the
// reachability index (SPP requires it), a pruning rule the plan reports
// off must leave its counter at zero — Rule 1 its reachability probes,
// Rule 2 its dynamic-bound aborts, Rules 3 and 4 their α prunings.
func TestExplainRulesMatchRun(t *testing.T) {
	var fired [4]int64 // per rule, over the runs that report it on
	for _, fx := range []struct {
		n, queries int
		algos      []Algorithm
	}{
		{3000, 8, []Algorithm{AlgoBSP, AlgoSPP, AlgoSP, AlgoTA}},
		// Rule 4 needs a tree deep enough that a child's α-bound can pass
		// θ when its parent is expanded; SP alone is cheap at this size.
		{12000, 20, []Algorithm{AlgoSP}},
	} {
		g := gen.Generate(gen.YagoConfig(fx.n, 3))
		withReach := NewEngine(g, rdf.Outgoing)
		withReach.EnableReach()
		withReach.EnableAlpha(3)
		noReach := NewEngine(g, rdf.Outgoing)
		noReach.SetAlpha(withReach.Alpha)
		qg := gen.NewQueryGen(g, rdf.Outgoing, 31)
		var qs []Query
		for i := 0; i < fx.queries; i++ {
			loc, kws := qg.Original(1 + i%5)
			qs = append(qs, Query{Loc: loc, Keywords: kws, K: 5})
		}
		for _, e := range []*Engine{withReach, noReach} {
			for _, a := range fx.algos {
				if a == AlgoSPP && e.Reach == nil {
					continue
				}
				for _, opts := range []Options{{}, {NoRule1: true}, {NoRule2: true}} {
					plan := e.Explain(a, qs[0], opts, nil, 0).Plan
					for i, q := range qs {
						_, st, err := e.Search(a, q, opts)
						if err != nil {
							t.Fatalf("n=%d %s reach=%v %+v query %d: %v", fx.n, a, e.Reach != nil, opts, i, err)
						}
						for r, c := range []struct {
							on      bool
							counter int64
							name    string
						}{
							{plan.Rule1, st.ReachQueries, "ReachQueries"},
							{plan.Rule2, st.PrunedDynamicBound, "PrunedDynamicBound"},
							{plan.Rule3, st.PrunedAlphaPlaces, "PrunedAlphaPlaces"},
							{plan.Rule4, st.PrunedAlphaNodes, "PrunedAlphaNodes"},
						} {
							if c.on {
								fired[r] += c.counter
							} else if c.counter != 0 {
								t.Errorf("n=%d %s reach=%v %+v query %d: plan reports Rule %d off, but %s = %d",
									fx.n, a, e.Reach != nil, opts, i, r+1, c.name, c.counter)
							}
						}
					}
				}
			}
		}
	}
	// Every rule must fire somewhere, or the zero checks above prove
	// nothing.
	for r, n := range fired {
		if n == 0 {
			t.Errorf("Rule %d never fired on the runs that report it on", r+1)
		}
	}
}
