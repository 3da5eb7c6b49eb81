package invindex

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

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

func TestDiskRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder()
	for i := 0; i < 5000; i++ {
		b.Add(uint32(rng.Intn(200)), uint32(rng.Intn(10000)), uint8(rng.Intn(6)))
	}
	mem := b.Build()
	enc := decoded(t, mem)
	if enc.NumTerms() != mem.NumTerms() {
		t.Fatalf("NumTerms: encoded %d mem %d", enc.NumTerms(), mem.NumTerms())
	}
	if enc.NumPostings() != mem.NumPostings() {
		t.Fatalf("NumPostings: encoded %d mem %d", enc.NumPostings(), mem.NumPostings())
	}
	for term := 0; term < mem.NumTerms(); term++ {
		want, _ := mem.Postings(uint32(term), nil)
		got, err := enc.Postings(uint32(term), nil)
		if err != nil {
			t.Fatalf("term %d: %v", term, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("term %d: encoded %v, mem %v", term, got, want)
		}
	}
}

func TestDiskRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		n := rng.Intn(500)
		for i := 0; i < n; i++ {
			b.Add(uint32(rng.Intn(50)), rng.Uint32(), uint8(rng.Intn(256)))
		}
		mem := b.Build()
		enc := decoded(t, mem)
		for term := 0; term < mem.NumTerms(); term++ {
			want, _ := mem.Postings(uint32(term), nil)
			got, err := enc.Postings(uint32(term), nil)
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// ReadFrom (the sequential decoder used by snapshots) must agree with the
// index it was written from.
func TestReadFromMatchesOpen(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	b := NewBuilder()
	for i := 0; i < 2000; i++ {
		b.Add(uint32(rng.Intn(80)), uint32(rng.Intn(5000)), uint8(rng.Intn(4)))
	}
	mem := b.Build()
	var enc bytes.Buffer
	if err := Write(&enc, mem); err != nil {
		t.Fatal(err)
	}
	streamed, err := ReadFrom(&enc)
	if err != nil {
		t.Fatal(err)
	}
	if streamed.NumTerms() != mem.NumTerms() || streamed.NumPostings() != mem.NumPostings() {
		t.Fatalf("shape: %d/%d vs %d/%d", streamed.NumTerms(), streamed.NumPostings(), mem.NumTerms(), mem.NumPostings())
	}
	for term := 0; term < mem.NumTerms(); term++ {
		a, _ := mem.Postings(uint32(term), nil)
		c, _ := streamed.Postings(uint32(term), nil)
		if !reflect.DeepEqual(a, c) {
			t.Fatalf("term %d differs", term)
		}
	}
	// AvgPostingLen agrees across representations.
	if AvgPostingLen(streamed) != AvgPostingLen(mem) {
		t.Errorf("AvgPostingLen differs: stream %v, mem %v", AvgPostingLen(streamed), AvgPostingLen(mem))
	}
}

func TestOpenRejectsGarbage(t *testing.T) {
	for _, data := range []string{"this is not an index", ""} {
		if _, err := ReadFrom(strings.NewReader(data)); err == nil {
			t.Fatalf("ReadFrom(%q) succeeded", data)
		}
	}
}

// Failure injection: a truncated encoding must surface errors, never
// panic or return silently wrong postings.
func TestTruncatedFile(t *testing.T) {
	b := NewBuilder()
	for i := uint32(0); i < 50; i++ {
		b.Add(i%5, i*100, uint8(i%3))
	}
	var enc bytes.Buffer
	if err := Write(&enc, b.Build()); err != nil {
		t.Fatal(err)
	}
	data := enc.Bytes()
	// Cut inside the posting area, and inside the offset table.
	for _, cut := range []int{len(data) - 8, 14} {
		if _, err := ReadFrom(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("ReadFrom of an encoding cut at %d of %d bytes succeeded", cut, len(data))
		}
	}
}

func TestMerge(t *testing.T) {
	b1 := NewBuilder()
	b1.Add(0, 1, 3)
	b1.Add(1, 2, 1)
	b2 := NewBuilder()
	b2.Add(0, 1, 1) // duplicate with smaller weight
	b2.Add(0, 7, 2)
	b2.Add(2, 9, 0)
	merged, err := Merge(b1.Build(), b2.Build())
	if err != nil {
		t.Fatal(err)
	}
	got, _ := merged.Postings(0, nil)
	want := []Posting{{ID: 1, Weight: 1}, {ID: 7, Weight: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged term 0 = %v, want %v", got, want)
	}
	if merged.NumPostings() != 4 {
		t.Errorf("NumPostings = %d, want 4", merged.NumPostings())
	}
}

func TestMergeMatchesSingleBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	full := NewBuilder()
	parts := []*Builder{NewBuilder(), NewBuilder(), NewBuilder()}
	for i := 0; i < 3000; i++ {
		term, id, w := uint32(rng.Intn(100)), uint32(rng.Intn(1000)), uint8(rng.Intn(4))
		full.Add(term, id, w)
		parts[rng.Intn(3)].Add(term, id, w)
	}
	// Note: full and parts see the same multiset only if every posting
	// goes to exactly one part — it does. But duplicate (term,id) pairs
	// with different weights may resolve differently across parts, so
	// compare IDs only.
	fullIx := full.Build()
	var ixs []Index
	for _, p := range parts {
		ixs = append(ixs, p.Build())
	}
	merged, err := Merge(ixs...)
	if err != nil {
		t.Fatal(err)
	}
	for term := 0; term < fullIx.NumTerms(); term++ {
		a, _ := fullIx.Postings(uint32(term), nil)
		b, _ := merged.Postings(uint32(term), nil)
		if len(a) != len(b) {
			t.Fatalf("term %d: %d vs %d postings", term, len(a), len(b))
		}
		for i := range a {
			if a[i].ID != b[i].ID {
				t.Fatalf("term %d posting %d: %v vs %v", term, i, a[i], b[i])
			}
		}
	}
}

func BenchmarkPostingsDisk(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	bld := NewBuilder()
	for i := 0; i < 200000; i++ {
		bld.Add(uint32(rng.Intn(1000)), uint32(rng.Intn(1000000)), 0)
	}
	disk := decoded(b, bld.Build())
	var buf []Posting
	var err error
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err = disk.Postings(uint32(i%1000), buf[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}
