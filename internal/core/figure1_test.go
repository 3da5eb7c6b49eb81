package core

import (
	"math"
	"testing"
	"time"

	"ksp/internal/paperdata"
	"ksp/internal/rdf"
)

// fixtureEngine builds a fully indexed engine over the Figure 1 graph.
func fixtureEngine(t testing.TB, alphaRadius int) (*paperdata.Fixture, *Engine) {
	f := paperdata.Figure1()
	e := NewEngine(f.G, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(alphaRadius)
	return f, e
}

type algo struct {
	name string
	run  func(*Engine, Query, Options) ([]Result, *Stats, error)
}

var allAlgos = []algo{
	{"BSP", (*Engine).BSP},
	{"SPP", (*Engine).SPP},
	{"SP", (*Engine).SP},
	{"TA", (*Engine).TA},
}

// streamAlgos are the algorithms driven by a candidate stream — the ones
// Options.Bound applies to (TA ignores it).
var streamAlgos = []algo{
	{"BSP", (*Engine).BSP},
	{"SPP", (*Engine).SPP},
	{"SP", (*Engine).SP},
}

// Examples 5 and 6: at q1 the top-1 is p1 (f = 6·S(q1,p1) ≈ 1.32) and p2
// ranks second (f = 4·S(q1,p2) ≈ 5.12); at q2 the ranking flips.
func TestFigure1Examples5And6(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	for _, a := range allAlgos {
		t.Run(a.name, func(t *testing.T) {
			res, _, err := a.run(e, Query{Loc: f.Q1, Keywords: f.Keywords, K: 2}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res) != 2 {
				t.Fatalf("got %d results, want 2", len(res))
			}
			if res[0].Place != f.P1 || res[1].Place != f.P2 {
				t.Fatalf("ranking = [%d %d], want [p1 p2]", res[0].Place, res[1].Place)
			}
			if res[0].Looseness != 6 || res[1].Looseness != 4 {
				t.Errorf("loosenesses = %v, %v; want 6, 4", res[0].Looseness, res[1].Looseness)
			}
			wantF1 := 6 * f.Q1.Dist(f.G.Loc(f.P1))
			wantF2 := 4 * f.Q1.Dist(f.G.Loc(f.P2))
			if math.Abs(res[0].Score-wantF1) > 1e-9 || math.Abs(res[1].Score-wantF2) > 1e-9 {
				t.Errorf("scores = %v, %v; want %v, %v", res[0].Score, res[1].Score, wantF1, wantF2)
			}
			// Paper rounds these to 1.32 and 5.12.
			if math.Abs(res[0].Score-1.32) > 0.01 || math.Abs(res[1].Score-5.12) > 0.01 {
				t.Errorf("scores %v, %v do not match the paper's 1.32, 5.12", res[0].Score, res[1].Score)
			}

			// At q2 the order flips (Example 5, second half).
			res2, _, err := a.run(e, Query{Loc: f.Q2, Keywords: f.Keywords, K: 2}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(res2) != 2 || res2[0].Place != f.P2 || res2[1].Place != f.P1 {
				t.Fatalf("q2 ranking wrong: %+v", res2)
			}
			// The paper computes 8.10 from the rounded S=1.35; the exact
			// value is 8.115, hence the wider tolerance.
			if math.Abs(res2[0].Score-0.32) > 0.01 || math.Abs(res2[1].Score-8.10) > 0.02 {
				t.Errorf("q2 scores %v, %v do not match the paper's 0.32, 8.10", res2[0].Score, res2[1].Score)
			}
		})
	}
}

// Example 8: for the top-1 query at q1, SPP aborts the TQSP construction
// of p2 via the dynamic bound (LB reaches 3 > Lw ≈ 1.03). The example
// narrates the paper's loop, so it runs on refRun. The served SPP screens
// p2 first: with the α index loaded, p2's place bound of 4 already scores
// above p1's θ, so p2 is killed before any TQSP work.
func TestExample8DynamicBoundPrunesP2(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	q := Query{Loc: f.Q1, Keywords: f.Keywords, K: 1}
	res, stats, err := refRun(e, AlgoSPP, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Place != f.P1 {
		t.Fatalf("top-1 = %+v, want p1", res)
	}
	if stats.PrunedDynamicBound != 1 {
		t.Errorf("PrunedDynamicBound = %d, want 1 (p2 aborted)", stats.PrunedDynamicBound)
	}
	if stats.TQSPComputations != 2 {
		t.Errorf("TQSPComputations = %d, want 2 (p1 full, p2 aborted)", stats.TQSPComputations)
	}

	served, st, err := e.SPP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "served SPP", served, res)
	if st.TQSPComputations != 1 || st.WindowScreenKilled != 1 || st.PrunedDynamicBound != 0 {
		t.Errorf("served SPP: TQSPs %d, screen kills %d, Rule 2 aborts %d; want 1, 1, 0 (p2 screened out)",
			st.TQSPComputations, st.WindowScreenKilled, st.PrunedDynamicBound)
	}
}

// Section 4.1's example: with keywords {church, architecture} no qualified
// place exists; SPP rejects both places via Rule 1 without any TQSP work.
func TestRule1UnqualifiedPlaces(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	q := Query{Loc: f.Q1, Keywords: []string{"church", "architecture"}, K: 1}

	res, stats, err := e.SPP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("expected no results, got %+v", res)
	}
	if stats.PrunedUnqualified != 2 {
		t.Errorf("PrunedUnqualified = %d, want 2", stats.PrunedUnqualified)
	}
	if stats.TQSPComputations != 0 {
		t.Errorf("TQSPComputations = %d, want 0", stats.TQSPComputations)
	}

	// BSP has no Rule 1: it wastes two full TQSP constructions.
	_, bstats, err := e.BSP(q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bstats.TQSPComputations != 2 {
		t.Errorf("BSP TQSPComputations = %d, want 2", bstats.TQSPComputations)
	}
}

// Example 4: the TQSP rooted at p2 is ⟨p2, (v6, v7, v8)⟩ — not the looser
// ⟨p2, (v6, v8)⟩ alternative — and p1's tree reaches history via v3→v4.
func TestCollectTrees(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	res, _, err := e.BSP(Query{Loc: f.Q2, Keywords: f.Keywords, K: 2}, Options{CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	// res[0] is p2.
	tree := res[0].Tree
	if tree == nil || tree.Root != f.P2 {
		t.Fatalf("p2 tree missing: %+v", tree)
	}
	members := map[uint32]TreeNode{}
	for _, n := range tree.Nodes {
		members[n.V] = n
	}
	for _, v := range []uint32{f.P2, f.V6, f.V7, f.V8} {
		if _, ok := members[v]; !ok {
			t.Errorf("p2 tree missing vertex %d", v)
		}
	}
	if len(members) != 4 {
		t.Errorf("p2 tree has %d vertices, want exactly {p2,v6,v7,v8}", len(members))
	}
	if members[f.V8].Depth != 2 || members[f.V8].Parent != f.V6 {
		t.Errorf("v8 should hang off v6 at depth 2: %+v", members[f.V8])
	}
	if members[f.V7].Depth != 1 || members[f.V7].Parent != f.P2 {
		t.Errorf("v7 should hang off p2 at depth 1: %+v", members[f.V7])
	}
	if len(members[f.P2].Matched) != 2 { // catholic + roman at the root
		t.Errorf("p2 should match two keywords, got %v", members[f.P2].Matched)
	}

	// res[1] is p1: its tree must include the v3→v4 path for history.
	tree1 := res[1].Tree
	m1 := map[uint32]TreeNode{}
	for _, n := range tree1.Nodes {
		m1[n.V] = n
	}
	for _, v := range []uint32{f.P1, f.V2, f.V3, f.V4} {
		if _, ok := m1[v]; !ok {
			t.Errorf("p1 tree missing vertex %d", v)
		}
	}
	if m1[f.V4].Parent != f.V3 || m1[f.V4].Depth != 2 {
		t.Errorf("v4 should hang off v3: %+v", m1[f.V4])
	}
}

// Table 2: the map Mq.ψ built during query preparation.
func TestPrepareMqMatchesTable2(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	pq, err := e.prepare(Query{Loc: f.Q1, Keywords: f.Keywords, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !pq.answerable || pq.numKeywords() != 4 {
		t.Fatalf("prepare failed: %+v", pq)
	}
	wantVertices := map[uint32][]string{
		f.V2: {"catholic", "roman"},
		f.V3: {"ancient"},
		f.V4: {"history"},
		f.V5: {"ancient", "roman"},
		f.V7: {"catholic", "history"},
		f.V8: {"ancient", "history"},
		f.P2: {"catholic", "roman"},
	}
	size := 0
	for v := uint32(0); int(v) < f.G.NumVertices(); v++ {
		if pq.mq.get(v) != 0 {
			size++
		}
	}
	if size != len(wantVertices) {
		t.Errorf("Mq has %d vertices, want %d", size, len(wantVertices))
	}
	// Build keyword-position lookup.
	pos := map[string]int{}
	for i, term := range pq.terms {
		pos[f.G.Vocab.Term(term)] = i
	}
	for v, words := range wantVertices {
		var want uint64
		for _, w := range words {
			want |= 1 << uint(pos[w])
		}
		if pq.mq.get(v) != want {
			t.Errorf("Mq[%d] = %b, want %b (%v)", v, pq.mq.get(v), want, words)
		}
	}
}

func TestUnknownKeywordYieldsEmpty(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	for _, a := range allAlgos {
		res, _, err := a.run(e, Query{Loc: f.Q1, Keywords: []string{"ancient", "nonexistentword"}, K: 3}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(res) != 0 {
			t.Errorf("%s: expected empty result, got %+v", a.name, res)
		}
	}
}

func TestKZeroAndEmptyKeywords(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	res, _, err := e.SP(Query{Loc: f.Q1, Keywords: f.Keywords, K: 0}, Options{})
	if err != nil || len(res) != 0 {
		t.Errorf("K=0: %v, %v", res, err)
	}
	// Empty keyword set: every place trivially qualifies with L=1; the
	// result is simply the nearest places.
	res, _, err = e.BSP(Query{Loc: f.Q1, Keywords: nil, K: 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Place != f.P1 || res[0].Looseness != 1 {
		t.Errorf("empty keywords: %+v", res)
	}
}

func TestKLargerThanPlaces(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	for _, a := range allAlgos {
		res, _, err := a.run(e, Query{Loc: f.Q1, Keywords: f.Keywords, K: 10}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if len(res) != 2 {
			t.Errorf("%s: got %d results, want all 2 qualified places", a.name, len(res))
		}
	}
}

func TestDeadlineFires(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	_, stats, err := e.BSP(Query{Loc: f.Q1, Keywords: f.Keywords, K: 2}, Options{Deadline: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.TimedOut {
		t.Error("expected TimedOut with 1ns deadline")
	}
}

func TestSPPRequiresReach(t *testing.T) {
	f := paperdata.Figure1()
	e := NewEngine(f.G, rdf.Outgoing) // no EnableReach
	if _, _, err := e.SPP(Query{Loc: f.Q1, Keywords: f.Keywords, K: 1}, Options{}); err == nil {
		t.Error("SPP without reach index should error")
	}
	if _, _, err := e.SP(Query{Loc: f.Q1, Keywords: f.Keywords, K: 1}, Options{}); err == nil {
		t.Error("SP without α index should error")
	}
}

func TestTooManyKeywords(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	kws := make([]string, 70)
	for i := range kws {
		kws[i] = "ancient" // dedup collapses these...
	}
	// Force 70 distinct known terms is impossible on the fixture; instead
	// check dedup keeps it under the cap.
	if _, _, err := e.BSP(Query{Loc: f.Q1, Keywords: kws, K: 1}, Options{}); err != nil {
		t.Errorf("deduped keywords should not error: %v", err)
	}
}

// The weighted-sum ranking (Equation 1) must produce identical results
// across algorithms too.
func TestWeightedSumRankingAgreement(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	e.Rank = WeightedSumRanking{Beta: 0.5}
	var base []Result
	for _, a := range allAlgos {
		res, _, err := a.run(e, Query{Loc: f.Q1, Keywords: f.Keywords, K: 2}, Options{})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if base == nil {
			base = res
			continue
		}
		if len(res) != len(base) {
			t.Fatalf("%s: %d results vs %d", a.name, len(res), len(base))
		}
		for i := range res {
			if res[i].Place != base[i].Place || math.Abs(res[i].Score-base[i].Score) > 1e-9 {
				t.Errorf("%s result %d = %+v, want %+v", a.name, i, res[i], base[i])
			}
		}
	}
	// Sanity: scores follow β·L + (1-β)·S. Under Equation 1 with β=0.5
	// the winner at q1 flips to p2 (0.5·4 + 0.5·1.278 < 0.5·6 + 0.5·0.219).
	if base[0].Place != f.P2 {
		t.Errorf("weighted top-1 = %d, want p2", base[0].Place)
	}
	want := 0.5*4 + 0.5*f.Q1.Dist(f.G.Loc(f.P2))
	if math.Abs(base[0].Score-want) > 1e-9 {
		t.Errorf("weighted score = %v, want %v", base[0].Score, want)
	}
}
