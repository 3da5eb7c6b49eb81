package invindex

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ksp/internal/rdf"
)

// hybridGraph is a random graph of n vertices whose terms straddle the
// bitset line 64·df = |V|: term 2j is held by ⌊n/64⌋ + j − 2 vertices, so
// the terms around j = 2 sit just below, on and just above it, the last
// vertex holds term 1, and the rest are drawn at random, some held by no
// vertex at all.
func hybridGraph(rng *rand.Rand, n int) *rdf.Graph {
	b := rdf.NewBuilder()
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = b.AddBareVertex(fmt.Sprintf("v%d", i))
	}
	terms := make([]uint32, 40)
	for j := range terms {
		terms[j] = b.Vocab.ID(fmt.Sprintf("t%d", j))
	}
	for j := 0; 2*j < len(terms); j++ {
		for _, i := range rng.Perm(n)[:min(max(n/64+j-2, 0), n)] {
			b.AddTermID(vs[i], terms[2*j])
		}
	}
	b.AddTermID(vs[n-1], terms[1])
	for i := range vs {
		for k := rng.Intn(4); k > 0; k-- {
			b.AddTermID(vs[i], terms[1+2*rng.Intn(len(terms)/2-2)])
		}
	}
	return b.Build()
}

// FromGraph's index must hold a term as a bitset exactly when 64·df > |V|
// and must read back, term for term, as the all-list index a Builder
// makes of the same postings.
func TestFromGraphMatchesAllListBuild(t *testing.T) {
	for _, n := range []int{640, 1000, 37} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := hybridGraph(rng, n)
		ref := NewBuilder()
		ref.Reserve(g.Vocab.Len())
		for v := uint32(0); int(v) < n; v++ {
			for _, term := range g.Doc(v) {
				ref.Add(term, v, 0)
			}
		}
		want := ref.Build()
		ix := FromGraph(g)

		if ix.NumTerms() != want.NumTerms() || ix.NumPostings() != want.NumPostings() {
			t.Fatalf("n %d: terms/postings %d/%d, want %d/%d", n,
				ix.NumTerms(), ix.NumPostings(), want.NumTerms(), want.NumPostings())
		}
		sets := 0
		for term := uint32(0); int(term) < want.NumTerms()+1; term++ {
			wl, _ := want.Postings(term, nil)
			got, _ := ix.Postings(term, nil)
			if !reflect.DeepEqual(got, wl) {
				t.Fatalf("n %d term %d: Postings %v, want %v", n, term, got, wl)
			}
			if !strictlyAscending(got) {
				t.Fatalf("n %d term %d: Postings not strictly ascending: %v", n, term, got)
			}
			list, set, df := ix.Term(term)
			if dense := 64*len(wl) > n; (set != nil) != dense {
				t.Fatalf("n %d term %d: df %d held as a bitset = %v, want %v", n, term, len(wl), set != nil, dense)
			}
			if set != nil {
				sets++
				if df != len(wl) || len(set) != (n+63)/64 {
					t.Fatalf("n %d term %d: bitset of %d words with df %d, want %d words, df %d", n, term, len(set), df, (n+63)/64, len(wl))
				}
			}
			ids := make([]uint32, len(wl))
			for i, p := range wl {
				ids[i] = p.ID
			}
			if set == nil && (df != len(wl) || len(wl) > 0 && !reflect.DeepEqual(list, ids)) {
				t.Fatalf("n %d term %d: Term list %v (df %d), want %v", n, term, list, df, wl)
			}
			if _, set, _ := want.Term(term); set != nil {
				t.Fatalf("n %d term %d: a Builder index holds a bitset", n, term)
			}
		}
		if sets == 0 {
			t.Fatalf("n %d: no term held as a bitset", n)
		}

		if ix.MemSize() >= want.MemSize() && sets > 0 {
			t.Errorf("n %d: the index takes %d bytes, the all-list one %d", n, ix.MemSize(), want.MemSize())
		}
	}
}
