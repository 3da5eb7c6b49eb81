package ksp

import (
	"path/filepath"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// TestRule1UnderSP pins what Pruning Rule 1 is worth to SP where it
// matters: on Yago-like data with keywords from the rarest 20 % of the
// vocabulary, SP with the rule prunes places by reachability and builds
// strictly fewer TQSPs than with NoRule1, and the answers are identical.
// It runs on a built dataset and on its snapshot, read onto the heap and
// mapped, which serve the saved labels: a snapshot whose labels were lost
// or broken would change the counts or the answers. Work counts repeat,
// so every opening must count exactly what the built dataset counts. The
// sums are logged for EXPERIMENTS.md's keyword-frequency table.
func TestRule1UnderSP(t *testing.T) {
	if testing.Short() {
		t.Skip("runs SP without Rule 1 on rare keywords, which builds thousands of TQSPs a query")
	}
	const n, queries, k = 3000, 15, 5
	g := gen.Generate(gen.YagoConfig(n, 2))
	built, err := NewDatasetFromGraph(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "yago.snap")
	if err := built.Save(path); err != nil {
		t.Fatal(err)
	}
	read, err := LoadSnapshot(path, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mmap = true
	mapped, err := LoadSnapshot(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for _, ds := range []*Dataset{read, mapped} {
		if ds.engine.Reach == nil || ds.engine.Reach == built.engine.Reach {
			t.Fatal("a snapshot opening does not serve its own reachability labels")
		}
	}
	openings := []struct {
		name string
		ds   *Dataset
	}{{"built", built}, {"read", read}, {"mapped", mapped}}
	for _, m := range []int{2, 5} {
		qg := gen.NewQueryGen(g, rdf.Outgoing, 18)
		var on, off [3]Stats
		for i := 0; i < queries; i++ {
			loc, kws := qg.FrequencyBand(m, 0, 0.2)
			q := Query{Loc: loc, Keywords: kws, K: k}
			var want []Result
			for j, o := range openings {
				res, st, err := o.ds.SearchWith(AlgoSP, q, Options{})
				if err != nil {
					t.Fatalf("m=%d query %d %s: %v", m, i, o.name, err)
				}
				resOff, stOff, err := o.ds.SearchWith(AlgoSP, q, Options{NoRule1: true})
				if err != nil {
					t.Fatalf("m=%d query %d %s NoRule1: %v", m, i, o.name, err)
				}
				if j == 0 {
					want = res
				}
				for _, got := range [][]Result{res, resOff} {
					if len(got) != len(want) {
						t.Fatalf("m=%d query %d %s: %d results, want %d", m, i, o.name, len(got), len(want))
					}
					for r := range want {
						if got[r].Place != want[r].Place || got[r].Score != want[r].Score {
							t.Fatalf("m=%d query %d %s: result %d is %+v, want %+v", m, i, o.name, r, got[r], want[r])
						}
					}
				}
				on[j].Add(st)
				off[j].Add(stOff)
			}
		}
		for j, o := range openings[1:] {
			a, b := on[j+1], on[0]
			if a.PrunedUnqualified != b.PrunedUnqualified || a.TQSPComputations != b.TQSPComputations ||
				a.BFSVertexVisits != b.BFSVertexVisits || a.ReachQueries != b.ReachQueries {
				t.Errorf("m=%d %s: Rule 1 pruned %d places with %d TQSPs, %d expansions and %d probes; built: %d, %d, %d, %d",
					m, o.name, a.PrunedUnqualified, a.TQSPComputations, a.BFSVertexVisits, a.ReachQueries,
					b.PrunedUnqualified, b.TQSPComputations, b.BFSVertexVisits, b.ReachQueries)
			}
		}
		s, u := on[0], off[0]
		if s.PrunedUnqualified == 0 {
			t.Errorf("m=%d: Rule 1 pruned no place", m)
		}
		if s.TQSPComputations >= u.TQSPComputations {
			t.Errorf("m=%d: SP built %d TQSPs with Rule 1 and %d without: want strictly fewer with it", m, s.TQSPComputations, u.TQSPComputations)
		}
		t.Logf("m=%d, Σ over %d queries: Rule 1 pruned %d places; TQSPs on/off %d/%d; BFS expansions on/off %d/%d",
			m, queries, s.PrunedUnqualified, s.TQSPComputations, u.TQSPComputations, s.BFSVertexVisits, u.BFSVertexVisits)
	}
}
