package alpha

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ksp/internal/geo"
	"ksp/internal/invindex"
	"ksp/internal/paperdata"
	"ksp/internal/rdf"
	"ksp/internal/rtree"
)

func geoPoint(x, y float64) geo.Point { return geo.Point{X: x, Y: y} }

func buildFixture(t *testing.T, alphaRadius int) (*paperdata.Fixture, *rtree.RTree, *Index) {
	t.Helper()
	f := paperdata.Figure1()
	items := make([]rtree.Item, 0, 2)
	for _, p := range f.G.Places() {
		items = append(items, rtree.Item{ID: p, Loc: f.G.Loc(p)})
	}
	tree := rtree.Bulk(items, 8)
	ix := Build(f.G, tree, alphaRadius, rdf.Outgoing)
	return f, tree, ix
}

func postingWeight(t *testing.T, ix invindex.Index, term, id uint32) (uint8, bool) {
	t.Helper()
	pl, err := ix.Postings(term, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pl {
		if p.ID == id {
			return p.Weight, true
		}
	}
	return 0, false
}

// Table 3 of the paper: the 1-radius word neighbourhoods of p1, p2 and of a
// node containing both.
func TestFigure1Table3(t *testing.T) {
	f, tree, ix := buildFixture(t, 1)
	term := func(w string) uint32 {
		id, ok := f.G.Vocab.Lookup(w)
		if !ok {
			t.Fatalf("vocab missing %q", w)
		}
		return id
	}

	// dg(p1, ·): abbey 0, ancient 1, catholic 1, roman 1, history absent.
	checks := []struct {
		word  string
		place uint32
		dist  uint8
		found bool
	}{
		{"abbey", f.P1, 0, true},
		{"ancient", f.P1, 1, true},
		{"catholic", f.P1, 1, true},
		{"roman", f.P1, 1, true},
		{"history", f.P1, 0, false}, // beyond radius 1
		{"abbey", f.P2, 0, false},
		{"catholic", f.P2, 0, true},
		{"roman", f.P2, 0, true},
		{"history", f.P2, 1, true},
		{"ancient", f.P2, 0, false}, // v8 is 2 hops away
	}
	for _, c := range checks {
		w, ok := postingWeight(t, ix.PlaceIdx, term(c.word), c.place)
		if ok != c.found || (ok && w != c.dist) {
			t.Errorf("WN place=%d word=%q: got (%d,%v), want (%d,%v)", c.place, c.word, w, ok, c.dist, c.found)
		}
	}

	// The root node contains both places: dg(N, t) = min over p1, p2.
	root := tree.Root()
	nodeChecks := []struct {
		word string
		dist uint8
	}{
		{"abbey", 0}, {"ancient", 1}, {"catholic", 0}, {"roman", 0}, {"history", 1},
	}
	for _, c := range nodeChecks {
		w, ok := postingWeight(t, ix.NodeIdx, term(c.word), root)
		if !ok || w != c.dist {
			t.Errorf("WN(N) word=%q: got (%d,%v), want (%d,true)", c.word, w, ok, c.dist)
		}
	}
}

// Example 10 of the paper: for α=1 and the running query, LαB(TN) = 3.
func TestExample10NodeBound(t *testing.T) {
	f, tree, ix := buildFixture(t, 1)
	terms := make([]uint32, len(f.Keywords))
	for i, w := range f.Keywords {
		terms[i], _ = f.G.Vocab.Lookup(w)
	}
	qv, err := ix.LoadQuery(terms)
	if err != nil {
		t.Fatal(err)
	}
	if got := qv.NodeBound(tree.Root()); got != 3 {
		t.Errorf("LαB(TN) = %v, want 3 (1+1+0+0+1)", got)
	}
	// Lemma 5: with S(q,N)=2 the score bound is 6 (as in Example 10).
	if got := qv.NodeBound(tree.Root()) * 2; got != 6 {
		t.Errorf("fαB(N) = %v, want 6", got)
	}
}

// Lemma 2 bounds: LαB(Tp) must never exceed the true looseness. With α=3
// the fixture's true loosenesses (6 for p1, 4 for p2) are matched exactly
// because every keyword is within radius 3.
func TestPlaceBoundTightAtLargeAlpha(t *testing.T) {
	f, _, ix := buildFixture(t, 3)
	terms := make([]uint32, len(f.Keywords))
	for i, w := range f.Keywords {
		terms[i], _ = f.G.Vocab.Lookup(w)
	}
	qv, err := ix.LoadQuery(terms)
	if err != nil {
		t.Fatal(err)
	}
	if got := qv.PlaceBound(f.P1); got != 6 {
		t.Errorf("LαB(Tp1) = %v, want 6", got)
	}
	if got := qv.PlaceBound(f.P2); got != 4 {
		t.Errorf("LαB(Tp2) = %v, want 4", got)
	}
}

func TestPlaceBoundLowerBoundsAtSmallAlpha(t *testing.T) {
	f, _, ix := buildFixture(t, 1)
	terms := make([]uint32, len(f.Keywords))
	for i, w := range f.Keywords {
		terms[i], _ = f.G.Vocab.Lookup(w)
	}
	qv, err := ix.LoadQuery(terms)
	if err != nil {
		t.Fatal(err)
	}
	// p1: ancient 1, roman 1, catholic 1, history missing -> 1+1+1+1+2 = 6.
	if got := qv.PlaceBound(f.P1); got != 6 {
		t.Errorf("LαB(Tp1) = %v, want 6", got)
	}
	// p2: roman 0, catholic 0, history 1, ancient missing -> 1+0+0+1+2 = 4.
	if got := qv.PlaceBound(f.P2); got != 4 {
		t.Errorf("LαB(Tp2) = %v, want 4", got)
	}
	// Both must lower-bound the true loosenesses 6 and 4.
	if qv.PlaceBound(f.P1) > 6 || qv.PlaceBound(f.P2) > 4 {
		t.Error("α-bounds exceed true looseness")
	}
}

func TestMonotoneInAlpha(t *testing.T) {
	// Larger α can only tighten (raise) the bound toward the true
	// looseness — never past it. Missing keywords contribute α+1 which
	// grows, found keywords contribute their exact distance.
	f := paperdata.Figure1()
	items := make([]rtree.Item, 0, 2)
	for _, p := range f.G.Places() {
		items = append(items, rtree.Item{ID: p, Loc: f.G.Loc(p)})
	}
	terms := make([]uint32, len(f.Keywords))
	for i, w := range f.Keywords {
		terms[i], _ = f.G.Vocab.Lookup(w)
	}
	trueL := map[uint32]float64{f.P1: 6, f.P2: 4}
	for a := 1; a <= 5; a++ {
		tree := rtree.Bulk(append([]rtree.Item(nil), items...), 8)
		ix := Build(f.G, tree, a, rdf.Outgoing)
		qv, err := ix.LoadQuery(terms)
		if err != nil {
			t.Fatal(err)
		}
		for p, want := range trueL {
			got := qv.PlaceBound(p)
			if got > want+1e-9 {
				t.Errorf("α=%d: LαB(place %d) = %v exceeds true %v", a, p, got, want)
			}
		}
		// Node bound must lower-bound every contained place's looseness.
		nb := qv.NodeBound(tree.Root())
		if nb > math.Min(trueL[f.P1], trueL[f.P2])+1e-9 {
			t.Errorf("α=%d: node bound %v exceeds min place looseness", a, nb)
		}
	}
}

// Entries with no posting at all (a place/node whose WN misses every
// query keyword) get the weakest bound: 1 + m·(α+1).
func TestBoundsForUnknownEntries(t *testing.T) {
	f, _, ix := buildFixture(t, 2)
	terms := make([]uint32, len(f.Keywords))
	for i, w := range f.Keywords {
		terms[i], _ = f.G.Vocab.Lookup(w)
	}
	qv, err := ix.LoadQuery(terms)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + 4*float64(2+1)
	if got := qv.PlaceBound(999999); got != want {
		t.Errorf("PlaceBound(unknown) = %v, want %v", got, want)
	}
	if got := qv.NodeBound(999999); got != want {
		t.Errorf("NodeBound(unknown) = %v, want %v", got, want)
	}
}

func TestAlphaSizeGrowsWithAlpha(t *testing.T) {
	var prev int64 = -1
	for _, a := range []int{1, 2, 3} {
		_, _, ix := buildFixture(t, a)
		p, n := ix.NumPostings()
		total := p + n
		if total < prev {
			t.Errorf("α=%d: postings %d shrank below %d", a, total, prev)
		}
		prev = total
		if ix.ApproxBytes() != total*5 {
			t.Errorf("ApproxBytes inconsistent")
		}
	}
}

// The parallel build must be deterministic: identical posting lists on
// every run (runs are stored by place and the counting sort walks the
// places in ID order, so worker scheduling leaves no trace).
func TestBuildDeterministic(t *testing.T) {
	f := paperdata.Figure1()
	items := make([]rtree.Item, 0, 2)
	for _, p := range f.G.Places() {
		items = append(items, rtree.Item{ID: p, Loc: f.G.Loc(p)})
	}
	build := func() *Index {
		tree := rtree.Bulk(append([]rtree.Item(nil), items...), 8)
		return Build(f.G, tree, 3, rdf.Outgoing)
	}
	a, b := build(), build()
	pa, na := a.NumPostings()
	pb, nb := b.NumPostings()
	if pa != pb || na != nb {
		t.Fatalf("posting counts differ: %d/%d vs %d/%d", pa, na, pb, nb)
	}
	for term := 0; term < f.G.Vocab.Len(); term++ {
		la, _ := a.PlaceIdx.Postings(uint32(term), nil)
		lb, _ := b.PlaceIdx.Postings(uint32(term), nil)
		if len(la) != len(lb) {
			t.Fatalf("term %d place postings differ", term)
		}
		for i := range la {
			if la[i] != lb[i] {
				t.Fatalf("term %d posting %d: %v vs %v", term, i, la[i], lb[i])
			}
		}
	}
}

// Parallel and forced-sequential construction agree on a larger graph.
func TestBuildParallelMatchesSequential(t *testing.T) {
	// A graph with enough places to engage all workers.
	b := rdf.NewBuilder()
	const n = 400
	for i := 0; i < n; i++ {
		v := b.AddBareVertex(fmt.Sprintf("v%d", i))
		b.AddTermID(v, b.Vocab.ID(fmt.Sprintf("w%d", i%37)))
		if i > 0 {
			b.AddEdge(uint32(i-1), v, "p")
		}
		if i%3 == 0 {
			b.SetLocation(v, geoPoint(float64(i%20), float64(i/20)))
		}
	}
	g := b.Build()
	items := make([]rtree.Item, 0)
	for _, p := range g.Places() {
		items = append(items, rtree.Item{ID: p, Loc: g.Loc(p)})
	}
	t1 := rtree.Bulk(append([]rtree.Item(nil), items...), 8)
	t2 := rtree.Bulk(append([]rtree.Item(nil), items...), 8)
	par := Build(g, t1, 2, rdf.Outgoing)
	old := runtime.GOMAXPROCS(1)
	seq := Build(g, t2, 2, rdf.Outgoing)
	runtime.GOMAXPROCS(old)
	pp, pn := par.NumPostings()
	sp, sn := seq.NumPostings()
	if pp != sp || pn != sn {
		t.Fatalf("parallel %d/%d vs sequential %d/%d", pp, pn, sp, sn)
	}
}

func TestEmptyGraph(t *testing.T) {
	b := rdf.NewBuilder()
	g := b.Build()
	tree := rtree.Bulk(nil, 8)
	ix := Build(g, tree, 3, rdf.Outgoing)
	p, n := ix.NumPostings()
	if p != 0 || n != 0 {
		t.Errorf("empty graph should yield empty index, got %d/%d", p, n)
	}
	qv, err := ix.LoadQuery([]uint32{})
	if err != nil {
		t.Fatal(err)
	}
	if got := qv.PlaceBound(0); got != 1 {
		t.Errorf("bound with no keywords = %v, want 1", got)
	}
}
