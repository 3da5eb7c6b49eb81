package invindex

import (
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
