package invindex

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

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
// ascending ones (every list a disjoint Merge makes) skip
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
