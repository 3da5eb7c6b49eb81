package invindex

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// FromSorted serves the lists it is handed, as they are, and its MemSize
// is exactly their bytes when they have no capacity to spare.
func TestFromSorted(t *testing.T) {
	post := []Posting{{ID: 2, Weight: 1}, {ID: 5, Weight: 0}, {ID: 9, Weight: 3}, {ID: 4, Weight: 2}}
	ix, err := FromSorted([][]Posting{post[0:3:3], nil, post[3:4:4], nil})
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumTerms() != 4 || ix.NumPostings() != 4 || ix.NonEmptyTerms() != 2 {
		t.Errorf("NumTerms/NumPostings/NonEmptyTerms = %d/%d/%d, want 4/4/2", ix.NumTerms(), ix.NumPostings(), ix.NonEmptyTerms())
	}
	for term, want := range [][]Posting{post[0:3], nil, post[3:4], nil, nil} {
		got, err := ix.Postings(uint32(term), nil)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			t.Errorf("Postings(%d) = %v, want %v", term, got, want)
		}
	}
	if got, want := ix.MemSize(), int64(4*24+4*8); got != want {
		t.Errorf("MemSize = %d, want %d: four slice headers and four postings", got, want)
	}
	// A list with room to spare holds on to the room.
	roomy, err := FromSorted([][]Posting{post[0:1]})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := roomy.MemSize(), int64(24+4*8); got != want {
		t.Errorf("MemSize with spare capacity = %d, want %d", got, want)
	}
}

// "Validate once, where the list is made": a list that is not strictly
// ID-ascending never becomes an index.
func TestFromSortedRejectsUnsorted(t *testing.T) {
	good := []Posting{{ID: 1}, {ID: 2}}
	for name, bad := range map[string][]Posting{
		"duplicated":   {{ID: 2, Weight: 1}, {ID: 5, Weight: 2}, {ID: 5, Weight: 3}},
		"out of order": {{ID: 2, Weight: 1}, {ID: 9, Weight: 0}, {ID: 5, Weight: 2}},
	} {
		if _, err := FromSorted([][]Posting{good, bad}); err == nil {
			t.Errorf("%s list accepted", name)
		}
	}
}

// referenceBuild is Build before it learned to leave sorted lists alone:
// every list sorted by (ID, weight), first of each ID kept.
func referenceBuild(lists [][]Posting) [][]Posting {
	out := make([][]Posting, len(lists))
	for t, src := range lists {
		pl := slices.Clone(src)
		sort.SliceStable(pl, func(i, j int) bool {
			if pl[i].ID != pl[j].ID {
				return pl[i].ID < pl[j].ID
			}
			return pl[i].Weight < pl[j].Weight
		})
		for i, p := range pl {
			if i == 0 || p.ID != pl[i-1].ID {
				out[t] = append(out[t], p)
			}
		}
	}
	return out
}

// Build gives the same lists whether or not a list arrived sorted: the
// ascending ones (every list FromGraph and a disjoint Merge make) skip
// the sort, the others — shuffled, with duplicate IDs under different
// weights — still get it.
func TestBuildSkipsSortOnlyWhereSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		lists := make([][]Posting, 1+rng.Intn(8))
		b := NewBuilder()
		b.Reserve(len(lists))
		for term := range lists {
			n := rng.Intn(30)
			ascending := rng.Intn(2) == 0
			id := uint32(0)
			for i := 0; i < n; i++ {
				if ascending {
					id += 1 + uint32(rng.Intn(5))
				} else {
					id = uint32(rng.Intn(20)) // collisions wanted
				}
				p := Posting{ID: id, Weight: uint8(rng.Intn(4))}
				lists[term] = append(lists[term], p)
				b.Add(uint32(term), p.ID, p.Weight)
			}
		}
		ix := b.Build()
		want := referenceBuild(lists)
		var total int64
		for term := range lists {
			got, err := ix.Postings(uint32(term), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want[term]) {
				t.Fatalf("round %d term %d: Build gave %v, want %v (added %v)", round, term, got, want[term], lists[term])
			}
			total += int64(len(got))
		}
		if ix.NumPostings() != total {
			t.Fatalf("round %d: NumPostings %d, lists hold %d", round, ix.NumPostings(), total)
		}
	}
}
