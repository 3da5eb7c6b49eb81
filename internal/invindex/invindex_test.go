package invindex

import (
	"math/rand"
	"reflect"
	"testing"

	"ksp/internal/paperdata"
)

func TestBuilderSortDedup(t *testing.T) {
	b := NewBuilder()
	b.Add(0, 5, 2)
	b.Add(0, 3, 1)
	b.Add(0, 5, 1) // duplicate ID, smaller weight wins
	b.Add(2, 1, 0)
	ix := b.Build()
	got, err := ix.Postings(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []Posting{{ID: 3, Weight: 1}, {ID: 5, Weight: 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Postings(0) = %v, want %v", got, want)
	}
	if got, _ := ix.Postings(1, nil); len(got) != 0 {
		t.Errorf("Postings(1) = %v, want empty", got)
	}
	if got, _ := ix.Postings(99, nil); len(got) != 0 {
		t.Errorf("Postings(99) = %v, want empty for out-of-range", got)
	}
	if ix.NumTerms() != 3 {
		t.Errorf("NumTerms = %d, want 3", ix.NumTerms())
	}
	if ix.NumPostings() != 3 {
		t.Errorf("NumPostings = %d, want 3", ix.NumPostings())
	}
}

func TestAvgPostingLen(t *testing.T) {
	b := NewBuilder()
	b.Add(0, 1, 0)
	b.Add(0, 2, 0)
	b.Add(1, 1, 0)
	b.Add(3, 1, 0) // term 2 empty
	ix := b.Build()
	if got := AvgPostingLen(ix); got != 4.0/3.0 {
		t.Errorf("AvgPostingLen = %v, want 4/3", got)
	}
}

// Table 1 of the paper: the inverted index over the Figure 1 documents.
func TestFigure1Table1(t *testing.T) {
	f := paperdata.Figure1()
	ix := FromGraph(f.G)
	expect := map[string][]uint32{
		"abbey":    {f.P1},
		"ancient":  {f.V3, f.V5, f.V8},
		"roman":    {f.V2, f.V5, f.P2},
		"catholic": {f.V2, f.P2, f.V7},
		"history":  {f.V4, f.V7, f.V8},
		"diocese":  {f.V3, f.P2},
		"subject":  {f.V1, f.V4},
		"peter":    {f.V2},
	}
	for word, wantIDs := range expect {
		term, ok := f.G.Vocab.Lookup(word)
		if !ok {
			t.Fatalf("vocab missing %q", word)
		}
		got, err := ix.Postings(term, nil)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs := make([]uint32, len(got))
		for i, p := range got {
			gotIDs[i] = p.ID
		}
		wantSorted := append([]uint32(nil), wantIDs...)
		for i := 1; i < len(wantSorted); i++ { // posting lists are ID-sorted
			for j := i; j > 0 && wantSorted[j-1] > wantSorted[j]; j-- {
				wantSorted[j-1], wantSorted[j] = wantSorted[j], wantSorted[j-1]
			}
		}
		if !reflect.DeepEqual(gotIDs, wantSorted) {
			t.Errorf("postings[%q] = %v, want %v", word, gotIDs, wantSorted)
		}
	}
}

func randomMem(t testing.TB, seed int64, n int) *MemIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	b.Reserve(150) // leave some trailing empty terms
	for i := 0; i < n; i++ {
		b.Add(uint32(rng.Intn(120)), uint32(rng.Intn(50000)), uint8(rng.Intn(6)))
	}
	return b.Build()
}

// NonEmptyTerms must keep AvgPostingLen exact — the offset-table
// shortcut must count precisely the terms with postings, which the same
// index read term by term, without the shortcut, agrees on.
func TestNonEmptyTerms(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		mem := randomMem(t, seed, 500)
		var want int64
		var buf []Posting
		for term := 0; term < mem.NumTerms(); term++ {
			buf, _ = mem.Postings(uint32(term), buf[:0])
			if len(buf) > 0 {
				want++
			}
		}
		if got := mem.NonEmptyTerms(); got != want {
			t.Errorf("seed %d: mem NonEmptyTerms = %d, want %d", seed, got, want)
		}
		if a, b := AvgPostingLen(struct{ Index }{mem}), AvgPostingLen(mem); a != b {
			t.Errorf("seed %d: AvgPostingLen term by term %v, mem %v", seed, a, b)
		}
	}
}
