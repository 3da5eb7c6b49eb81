package invindex

import (
	"bytes"
	"math/rand"
	"testing"
)

// decoded writes ix with Write and serves it back with ReadFrom, the way
// the snapshot loader reads the α sections of format versions 1 and 2.
func decoded(t testing.TB, ix Index) *Encoded {
	t.Helper()
	var enc bytes.Buffer
	if err := Write(&enc, ix); err != nil {
		t.Fatal(err)
	}
	d, err := ReadFrom(&enc)
	if err != nil {
		t.Fatal(err)
	}
	return d
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
// shortcut must count precisely the terms with postings, which an
// encoding, read term by term, agrees on.
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
		if a, b := AvgPostingLen(decoded(t, mem)), AvgPostingLen(mem); a != b {
			t.Errorf("seed %d: AvgPostingLen encoded %v mem %v", seed, a, b)
		}
	}
}

// Write goes through Postings, so every representation serializes to the
// same bytes; ReadFrom serves the encoding it read.
func TestWriteAnyRepresentation(t *testing.T) {
	mem := randomMem(t, 31, 2000)
	var want bytes.Buffer
	if err := Write(&want, mem); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := Write(&got, decoded(t, mem)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("Write of the decoded encoding gave %d bytes that differ from the in-memory index's %d", got.Len(), want.Len())
	}
}
