package reach

import (
	"math/rand"
	"testing"

	"ksp/internal/paperdata"
	"ksp/internal/rdf"
)

// bfsReach computes ground-truth reachability.
func bfsReach(out [][]uint32, u, v uint32) bool {
	if u == v {
		return true
	}
	visited := make([]bool, len(out))
	queue := []uint32{u}
	visited[u] = true
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		for _, w := range out[x] {
			if w == v {
				return true
			}
			if !visited[w] {
				visited[w] = true
				queue = append(queue, w)
			}
		}
	}
	return false
}

func TestTarjanSimple(t *testing.T) {
	// 0 -> 1 -> 2 -> 0 (one SCC), 2 -> 3, 3 -> 4, 4 -> 3 (another SCC)
	out := [][]uint32{{1}, {2}, {0, 3}, {4}, {3}}
	scc := tarjanSCC(out)
	if scc.numComp != 2 {
		t.Fatalf("numComp = %d, want 2", scc.numComp)
	}
	if scc.comp[0] != scc.comp[1] || scc.comp[1] != scc.comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if scc.comp[3] != scc.comp[4] {
		t.Error("3,4 should share a component")
	}
	if scc.comp[0] == scc.comp[3] {
		t.Error("the two cycles are distinct components")
	}
}

func TestTarjanSingletons(t *testing.T) {
	out := [][]uint32{{1}, {2}, nil} // chain: 3 singleton SCCs
	scc := tarjanSCC(out)
	if scc.numComp != 3 {
		t.Fatalf("numComp = %d, want 3", scc.numComp)
	}
	// Reverse topological: successors get smaller component IDs.
	if !(scc.comp[2] < scc.comp[1] && scc.comp[1] < scc.comp[0]) {
		t.Errorf("component order not reverse-topological: %v", scc.comp)
	}
}

func TestReachableChainAndCycle(t *testing.T) {
	out := [][]uint32{{1}, {2}, {0, 3}, {4}, nil, nil} // cycle 0-1-2, tail 3-4, isolated 5
	ix := Build(out)
	cases := []struct {
		u, v uint32
		want bool
	}{
		{0, 0, true}, {0, 1, true}, {1, 0, true}, {2, 4, true},
		{0, 4, true}, {4, 0, false}, {3, 2, false}, {5, 0, false},
		{0, 5, false}, {4, 4, true}, {5, 5, true},
	}
	for _, c := range cases {
		if got := ix.Reachable(c.u, c.v); got != c.want {
			t.Errorf("Reachable(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

// The labels live in two blobs delimited by offset tables; the size
// statistics must describe exactly that layout.
func TestFlatLabelAccounting(t *testing.T) {
	out := [][]uint32{{1}, {2}, {0, 3}, {4}, nil, nil} // cycle 0-1-2, tail 3-4, isolated 5
	ix := Build(out)
	if got := ix.NumComponents(); got != 4 {
		t.Errorf("NumComponents = %d, want 4", got)
	}
	for name, l := range map[string]struct{ blob, off []uint32 }{
		"lin": {ix.lin, ix.linOff}, "lout": {ix.lout, ix.loutOff},
	} {
		if len(l.off) != ix.NumComponents()+1 || l.off[0] != 0 || int(l.off[len(l.off)-1]) != len(l.blob) {
			t.Errorf("%s: offsets %v do not delimit a blob of %d entries", name, l.off, len(l.blob))
		}
		for c := 1; c < len(l.off); c++ {
			label := l.blob[l.off[c-1]:l.off[c]]
			if len(label) == 0 {
				t.Errorf("%s: component %d has no label (every component is at least its own landmark's)", name, c-1)
			}
			for i := 1; i < len(label); i++ {
				if label[i] <= label[i-1] {
					t.Errorf("%s: label of component %d not rank-sorted: %v", name, c-1, label)
				}
			}
		}
	}
	entries := int64(len(ix.lin) + len(ix.lout))
	if got := ix.LabelEntries(); got != entries {
		t.Errorf("LabelEntries = %d, want %d", got, entries)
	}
	if got, want := ix.MemSize(), 4*(int64(len(out))+entries+2*5); got != want {
		t.Errorf("MemSize = %d, want %d", got, want)
	}
}

func randomDigraph(rng *rand.Rand, n, m int) [][]uint32 {
	out := make([][]uint32, n)
	for i := 0; i < m; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		out[u] = append(out[u], v)
	}
	return out
}

func TestReachableMatchesBFSOnRandomGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		m := rng.Intn(4 * n)
		out := randomDigraph(rng, n, m)
		ix := Build(out)
		for q := 0; q < 200; q++ {
			u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
			want := bfsReach(out, u, v)
			if got := ix.Reachable(u, v); got != want {
				t.Fatalf("trial %d: Reachable(%d,%d) = %v, want %v (graph %v)", trial, u, v, got, want, out)
			}
		}
	}
}

func TestReachableDenseGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n, m := 300, 3000
	out := randomDigraph(rng, n, m)
	ix := Build(out)
	for q := 0; q < 500; q++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if got, want := ix.Reachable(u, v), bfsReach(out, u, v); got != want {
			t.Fatalf("Reachable(%d,%d) = %v, want %v", u, v, got, want)
		}
	}
	if ix.LabelEntries() <= 0 || ix.MemSize() <= 0 {
		t.Error("index statistics must be positive")
	}
}

func TestKeywordIndexFigure1(t *testing.T) {
	f := paperdata.Figure1()
	k := NewKeywordIndex(f.G, rdf.Outgoing)

	term := func(w string) uint32 {
		id, ok := f.G.Vocab.Lookup(w)
		if !ok {
			t.Fatalf("vocab missing %q", w)
		}
		return id
	}

	// Section 4.1's example: p2 never reaches "architecture".
	if k.CanReach(f.P2, term("architecture")) {
		t.Error("p2 must not reach 'architecture'")
	}
	if !k.CanReach(f.P2, term("church")) {
		t.Error("p2 must reach 'church' (v7)")
	}
	// p1 reaches all four query keywords (Example 8).
	for _, w := range f.Keywords {
		if !k.CanReach(f.P1, term(w)) {
			t.Errorf("p1 must reach %q", w)
		}
	}
	// p2 reaches all four query keywords as well.
	for _, w := range f.Keywords {
		if !k.CanReach(f.P2, term(w)) {
			t.Errorf("p2 must reach %q", w)
		}
	}
	// A vertex reaches terms in its own document.
	if !k.CanReach(f.V8, term("anatolia")) {
		t.Error("v8 must reach its own term")
	}
	// v8 has no outgoing edges: cannot reach terms it does not hold.
	if k.CanReach(f.V8, term("catholic")) {
		t.Error("v8 must not reach 'catholic'")
	}
}

func TestKeywordIndexUndirected(t *testing.T) {
	f := paperdata.Figure1()
	k := NewKeywordIndex(f.G, rdf.Undirected)
	term, _ := f.G.Vocab.Lookup("architecture")
	// Undirected, p2's component still does not touch p1's in Figure 1...
	// actually the two halves are disjoint, so still unreachable.
	if k.CanReach(f.P2, term) {
		t.Error("p2 and v1 are in different WCCs; still unreachable undirected")
	}
	// But v8 can now reach 'catholic' (via v6 <- p2 -> v7).
	cath, _ := f.G.Vocab.Lookup("catholic")
	if !k.CanReach(f.V8, cath) {
		t.Error("v8 must reach 'catholic' undirected")
	}
}

func TestKeywordIndexUnknownTerm(t *testing.T) {
	f := paperdata.Figure1()
	k := NewKeywordIndex(f.G, rdf.Outgoing)
	if k.CanReach(f.P1, 1<<30) {
		t.Error("out-of-range term must be unreachable")
	}
}

func BenchmarkReachableQueries(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	out := randomDigraph(rng, 20000, 100000)
	ix := Build(out)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Reachable(uint32(i%20000), uint32((i*7919)%20000))
	}
}

func BenchmarkBuildIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	out := randomDigraph(rng, 5000, 25000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(out)
	}
}

// FromArrays serves a built index's arrays with the same answers for
// every vertex and term, in both directions, and refuses arrays no build
// makes. (The snapshot's damage tests break each rule in a file.)
func TestFromArraysMatchesBuild(t *testing.T) {
	f := paperdata.Figure1()
	for _, dir := range []rdf.Direction{rdf.Outgoing, rdf.Undirected} {
		k := NewKeywordIndex(f.G, dir)
		v, err := FromArrays(k.Arrays(), f.G.NumVertices())
		if err != nil {
			t.Fatalf("dir %v: %v", dir, err)
		}
		for u := uint32(0); int(u) < f.G.NumVertices(); u++ {
			for term := uint32(0); int(term) <= f.G.Vocab.Len(); term++ {
				if v.CanReach(u, term) != k.CanReach(u, term) {
					t.Fatalf("dir %v: CanReach(%d, %d) differs", dir, u, term)
				}
			}
		}
		if v.MemSize() != k.MemSize() || v.LabelEntries() != k.LabelEntries() {
			t.Errorf("dir %v: sizes differ", dir)
		}
	}
	a := NewKeywordIndex(f.G, rdf.Outgoing).Arrays()
	for name, b := range map[string]Arrays{
		"no offsets":              {Comp: a.Comp, TermVert: a.TermVert},
		"fewer components":        {Comp: a.Comp[:1], LinOff: a.LinOff, Lin: a.Lin, LoutOff: a.LoutOff, Lout: a.Lout, TermVert: a.TermVert},
		"out-labels cut short":    {Comp: a.Comp, LinOff: a.LinOff, Lin: a.Lin, LoutOff: a.LoutOff, Lout: a.Lout[:len(a.Lout)-1], TermVert: a.TermVert},
		"term vertices forgotten": {Comp: a.Comp, LinOff: a.LinOff, Lin: a.Lin, LoutOff: a.LoutOff, Lout: a.Lout, TermVert: a.TermVert[:0]},
	} {
		if _, err := FromArrays(b, f.G.NumVertices()); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
