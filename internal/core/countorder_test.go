package core

import (
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// TestAlgorithmCountOrder pins the paper's cost claims query by query on
// the §6.1 workload (|q.ψ| = 5, k = 5, α = 3) over both generators:
//   - each pruning layer only removes work: TQSP constructions obey
//     SP ≤ SPP ≤ BSP (Rules 1–2 over BSP, Rules 3–4 over SPP);
//   - SP's α-bounded best-first traversal touches no more R-tree nodes
//     than SPP's distance browsing on any query, and strictly fewer over
//     each fixture's sum (Rule 4). A query can tie when both stop
//     within the same first few nodes;
//   - disabling Rule 1 or Rule 2 in SPP or SP never lowers the TQSP
//     constructions or the BFS expansions.
//
// Work counts repeat from run to run, so every query is checked exactly,
// and each fixture's sums — TQSP constructions, BFS expansions and R-tree
// node accesses per algorithm and per rule switch — are pinned to the
// digit in countOrderSums. A change to the TQSP kernel, the candidate
// streams or the screen that is meant to keep the work it does must
// leave this table as it is.
func TestAlgorithmCountOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the §6.1 workload on two 3,000-vertex graphs")
	}
	const n, queries, m, k = 3000, 30, 5, 5
	for _, fx := range []struct {
		name string
		cfg  gen.Config
	}{
		{"DBpedia-like", gen.DBpediaConfig(n, 1)},
		{"Yago-like", gen.YagoConfig(n, 2)},
	} {
		t.Run(fx.name, func(t *testing.T) {
			g := gen.Generate(fx.cfg)
			e := NewEngine(g, rdf.Outgoing)
			e.EnableReach()
			e.EnableAlpha(3)
			qg := gen.NewQueryGen(g, rdf.Outgoing, 18)
			var sum [3]Stats    // BSP, SPP, SP
			var off [2][2]Stats // [SPP, SP][NoRule1, NoRule2]
			for i := 0; i < queries; i++ {
				loc, kws := qg.Original(m)
				q := Query{Loc: loc, Keywords: kws, K: k}
				var st [3]*Stats
				for j, a := range streamAlgos {
					_, s, err := a.run(e, q, Options{})
					if err != nil {
						t.Fatalf("query %d %s: %v", i, a.name, err)
					}
					st[j] = s
					sum[j].Add(s)
				}
				bsp, spp, sp := st[0], st[1], st[2]
				if !(sp.TQSPComputations <= spp.TQSPComputations && spp.TQSPComputations <= bsp.TQSPComputations) {
					t.Errorf("query %d: TQSP constructions SP %d, SPP %d, BSP %d: want SP ≤ SPP ≤ BSP",
						i, sp.TQSPComputations, spp.TQSPComputations, bsp.TQSPComputations)
				}
				if sp.RTreeNodeAccesses > spp.RTreeNodeAccesses {
					t.Errorf("query %d: R-tree node accesses SP %d, SPP %d: want SP ≤ SPP",
						i, sp.RTreeNodeAccesses, spp.RTreeNodeAccesses)
				}
				for j, a := range streamAlgos[1:] {
					base := st[j+1]
					for r, rule := range []struct {
						name string
						opts Options
					}{{"NoRule1", Options{NoRule1: true}}, {"NoRule2", Options{NoRule2: true}}} {
						_, s, err := a.run(e, q, rule.opts)
						if err != nil {
							t.Fatalf("query %d %s %s: %v", i, a.name, rule.name, err)
						}
						off[j][r].Add(s)
						if s.TQSPComputations < base.TQSPComputations || s.BFSVertexVisits < base.BFSVertexVisits {
							t.Errorf("query %d: %s with %s did less work: TQSPs %d < %d or BFS expansions %d < %d",
								i, a.name, rule.name, s.TQSPComputations, base.TQSPComputations, s.BFSVertexVisits, base.BFSVertexVisits)
						}
					}
				}
			}
			if sum[2].RTreeNodeAccesses >= sum[1].RTreeNodeAccesses {
				t.Errorf("Σ R-tree node accesses SP %d, SPP %d: want SP < SPP", sum[2].RTreeNodeAccesses, sum[1].RTreeNodeAccesses)
			}
			got := map[string]workCounts{}
			for j, a := range streamAlgos {
				got[a.name] = countsOf(&sum[j])
			}
			for j, a := range streamAlgos[1:] {
				got[a.name+" NoRule1"] = countsOf(&off[j][0])
				got[a.name+" NoRule2"] = countsOf(&off[j][1])
			}
			want := countOrderSums[fx.name]
			for _, run := range []string{"BSP", "SPP", "SPP NoRule1", "SPP NoRule2", "SP", "SP NoRule1", "SP NoRule2"} {
				if got[run] != want[run] {
					t.Errorf("Σ over %d queries, %s: TQSPs / BFS expansions / R-tree node accesses %d / %d / %d, want %d / %d / %d",
						queries, run, got[run].tqsps, got[run].bfs, got[run].nodes, want[run].tqsps, want[run].bfs, want[run].nodes)
				}
			}
		})
	}
}

// workCounts is one row of countOrderSums.
type workCounts struct{ tqsps, bfs, nodes int64 }

func countsOf(s *Stats) workCounts {
	return workCounts{s.TQSPComputations, s.BFSVertexVisits, s.RTreeNodeAccesses}
}

// countOrderSums holds TestAlgorithmCountOrder's sums over its 30 queries
// per fixture: TQSP constructions, BFS expansions and R-tree node
// accesses, per algorithm and with Rule 1 or Rule 2 switched off.
var countOrderSums = map[string]map[string]workCounts{
	"DBpedia-like": {
		"BSP":         {5135, 71201, 237},
		"SPP":         {306, 3062, 237},
		"SPP NoRule1": {306, 3062, 237},
		"SPP NoRule2": {5135, 71201, 237},
		"SP":          {150, 1372, 135},
		"SP NoRule1":  {150, 1372, 135},
		"SP NoRule2":  {150, 1372, 135},
	},
	"Yago-like": {
		"BSP":         {35074, 8648930, 1234},
		"SPP":         {363, 63166, 1234},
		"SPP NoRule1": {363, 63166, 1234},
		"SPP NoRule2": {35032, 8648888, 1234},
		"SP":          {166, 26810, 477},
		"SP NoRule1":  {166, 26810, 477},
		"SP NoRule2":  {166, 27601, 477},
	},
}
