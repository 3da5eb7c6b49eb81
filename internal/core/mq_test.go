package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ksp/internal/geo"
	"ksp/internal/invindex"
	"ksp/internal/rdf"
)

// mqGraph is a random graph of n vertices whose vocabulary straddles the
// document index's bitset line 64·df = |V|: "lo" is held by ⌊n/64⌋
// vertices and "hi" by one more, the last vertex among them, and r0…r79
// by anywhere from one vertex to a third of them. Every term is held
// somewhere, so any 64 of them make an answerable query.
func mqGraph(rng *rand.Rand, n int) *rdf.Graph {
	b := rdf.NewBuilder()
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = b.AddBareVertex(fmt.Sprintf("v%d", i))
		if rng.Intn(2) == 0 {
			b.SetLocation(vs[i], geo.Point{X: rng.Float64(), Y: rng.Float64()})
		}
	}
	hold := func(term string, at []int) {
		id := b.Vocab.ID(term)
		for _, i := range at {
			b.AddTermID(vs[i], id)
		}
	}
	lo := rng.Perm(n)[:n/64]
	hold("lo", lo)
	hi := append(rng.Perm(n - 1)[:n/64], n-1)
	hold("hi", hi)
	for j := 0; j < 80; j++ {
		at := []int{j % n}
		p := []float64{0.002, 0.01, 0.05, 0.3}[j%4]
		for i := 0; i < n; i++ {
			if rng.Float64() < p {
				at = append(at, i)
			}
		}
		hold(fmt.Sprintf("r%d", j), at)
	}
	for i := 3 * n; i > 0; i-- {
		b.AddEdge(vs[rng.Intn(n)], vs[rng.Intn(n)], "p")
	}
	return b.Build()
}

// checkMq prepares kws on e and compares Mq.ψ, vertex by vertex and for a
// random set of open keywords, with the map the keywords' posting lists
// give. It returns the prepared query's terms, or nil when unanswerable.
func checkMq(t *testing.T, label string, rng *rand.Rand, e *Engine, kws []string) []uint32 {
	t.Helper()
	pq, err := e.prepare(Query{Keywords: kws})
	if err != nil {
		t.Fatal(err)
	}
	defer e.releasePrep(pq)
	if !pq.answerable {
		return nil
	}
	want := map[uint32]uint64{}
	for i, term := range pq.terms {
		pl, err := e.Doc.Postings(term, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl) != pq.df[i] {
			t.Fatalf("%s: keyword %d: df %d, posting list of %d", label, i, pq.df[i], len(pl))
		}
		for _, p := range pl {
			want[p.ID] |= 1 << uint(i)
		}
	}
	for v := uint32(0); int(v) < e.G.NumVertices(); v++ {
		if got := pq.mq.get(v); got != want[v] {
			t.Fatalf("%s: Mq[%d] = %b, want %b", label, v, got, want[v])
		}
		open := rng.Uint64() & pq.full
		if got := pq.mq.match(v, open); got != want[v]&open {
			t.Fatalf("%s: Mq[%d] over open %b = %b, want %b", label, v, open, got, want[v]&open)
		}
	}
	return pq.terms
}

// The bitset Mq.ψ must equal the map the keywords' posting lists give,
// whether a keyword's bitset is the document index's own or a scratch one
// its list was set into, and an engine whose document index a Builder
// made (every keyword a list) must answer exactly as one whose frequent
// terms are bitsets.
func TestMqMatchesPostings(t *testing.T) {
	for _, n := range []int{640, 1000} { // 64·⌊n/64⌋ = n, and a partial last word
		rng := rand.New(rand.NewSource(int64(n)))
		g := mqGraph(rng, n)
		e := NewEngine(g, rdf.Outgoing)
		e.EnableReach()
		e.EnableAlpha(2)
		lists := NewEngine(g, rdf.Outgoing)
		lists.EnableReach()
		lists.EnableAlpha(2)
		ref := invindex.NewBuilder()
		ref.Reserve(g.Vocab.Len())
		for v := uint32(0); int(v) < n; v++ {
			for _, term := range g.Doc(v) {
				ref.Add(term, v, 0)
			}
		}
		lists.Doc = ref.Build()

		for word, dense := range map[string]bool{"lo": false, "hi": true} {
			id, _ := g.Vocab.Lookup(word)
			if _, set, _ := e.Doc.Term(id); (set != nil) != dense {
				t.Fatalf("n %d: %q held as a bitset = %v, want %v", n, word, set != nil, dense)
			}
			if _, set, _ := lists.Doc.Term(id); set != nil {
				t.Fatalf("n %d: the reference index holds %q as a bitset", n, word)
			}
		}

		var sets [][]string
		all := []string{"lo", "hi"}
		for j := 0; len(all) < MaxKeywords; j++ {
			all = append(all, fmt.Sprintf("r%d", j))
		}
		sets = append(sets, all, []string{"lo", "hi"}, []string{"hi", "r3", "hi", "r3"})
		for i := 0; i < 30; i++ {
			kws := make([]string, 1+rng.Intn(6))
			for j := range kws {
				kws[j] = all[rng.Intn(len(all))]
			}
			sets = append(sets, kws)
		}
		answered := 0
		for _, kws := range sets {
			label := fmt.Sprintf("n %d kws %v", n, kws)
			terms := checkMq(t, label, rng, e, kws)
			listTerms := checkMq(t, label+" (lists)", rng, lists, kws)
			if fmt.Sprint(terms) != fmt.Sprint(listTerms) {
				t.Fatalf("%s: keyword order %v, all lists %v", label, terms, listTerms)
			}
			q := Query{Loc: geo.Point{X: rng.Float64(), Y: rng.Float64()}, Keywords: kws, K: 3}
			for _, a := range allAlgos {
				want, _, err := a.run(lists, q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := a.run(e, q, Options{})
				if err != nil {
					t.Fatal(err)
				}
				identicalResults(t, label+" "+a.name, got, want)
				if len(want) > 0 {
					answered++
				}
			}
		}
		t.Logf("n %d: %d of %d answers non-empty", n, answered, len(allAlgos)*len(sets))
		if 2*answered < len(allAlgos)*len(sets) {
			t.Fatalf("n %d: only %d of %d answers non-empty; the comparison is too weak", n, answered, len(allAlgos)*len(sets))
		}
		if got := checkMq(t, "m = 64", rng, e, all); len(got) != MaxKeywords {
			t.Fatalf("m = 64 query resolved to %d keywords", len(got))
		}
		if got := checkMq(t, "repeated", rng, e, []string{"hi", "r3", "hi", "r3"}); len(got) != 2 {
			t.Fatalf("repeated keywords resolved to %d keywords, want 2", len(got))
		}
		if got := checkMq(t, "out of vocabulary", rng, e, []string{"hi", "nowhere"}); got != nil {
			t.Fatalf("an out-of-vocabulary keyword left the query answerable: %v", got)
		}
	}
}

// A pooled Mq.ψ must carry nothing from one query into the next: from an
// all-list query (every keyword set into scratch) to an all-bitset one
// (every keyword borrowed) and back to lists over other vertices, whose
// scratch must have been zeroed first.
func TestDenseMQRecycling(t *testing.T) {
	const n = 200
	set := func(ids ...uint32) []uint64 {
		s := make([]uint64, (n+63)/64)
		for _, v := range ids {
			s[v>>6] |= 1 << (v & 63)
		}
		return s
	}
	list := func(ids ...uint32) []uint32 { return ids }
	expect := func(step string, d *denseMQ, want map[uint32]uint64) {
		t.Helper()
		for v := uint32(0); v < n; v++ {
			if got := d.get(v); got != want[v] {
				t.Fatalf("%s: Mq[%d] = %b, want %b", step, v, got, want[v])
			}
		}
	}
	d := &denseMQ{}
	d.reset(n)
	d.scatter(list(0, 63, 64, 199))
	d.scatter(list(5, 64))
	expect("lists", d, map[uint32]uint64{0: 1, 5: 2, 63: 1, 64: 3, 199: 1})

	d.reset(n)
	d.borrow(set(1, 100))
	d.borrow(set(2, 100, 198))
	d.borrow(set(3))
	expect("bitsets", d, map[uint32]uint64{1: 1, 2: 2, 3: 4, 100: 3, 198: 2})

	d.reset(n)
	d.scatter(list(7))
	expect("lists again", d, map[uint32]uint64{7: 1})
	if d.bits[1] != nil || d.bits[2] != nil {
		t.Fatal("reset kept a borrowed bitset")
	}

	// The same through the engine's pool, queries interleaved so pooled
	// instances are reused across different keyword sets and forms.
	rng := rand.New(rand.NewSource(3))
	g := mqGraph(rng, 1000)
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	kwsets := [][]string{{"lo", "r0", "r4"}, {"hi", "r3", "r7"}, {"r1", "r5"}, {"hi", "lo", "r2", "r6"}}
	want := make([][]Result, len(kwsets))
	for i, kws := range kwsets {
		q := Query{Loc: geo.Point{X: 0.5, Y: 0.5}, Keywords: kws, K: 3}
		var err error
		if want[i], _, err = e.SPP(q, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	for rep := 0; rep < 3; rep++ {
		for i := len(kwsets) - 1; i >= 0; i-- {
			checkMq(t, fmt.Sprint(kwsets[i]), rng, e, kwsets[i])
			got, _, err := e.SPP(Query{Loc: geo.Point{X: 0.5, Y: 0.5}, Keywords: kwsets[i], K: 3}, Options{})
			if err != nil {
				t.Fatal(err)
			}
			identicalResults(t, "SPP-recycle", got, want[i])
		}
	}
}
