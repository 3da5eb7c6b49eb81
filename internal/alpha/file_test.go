package alpha

import (
	"math/rand"
	"testing"
)

// column returns term's column, nil when it is kept as a list.
func (f *File) column(term uint32) []byte { return f.term(term).col }

// The word-at-a-time count and check of a column arena agree with a
// nibble-at-a-time reading on every limit, at every length, with or
// without a tail.
func TestWordChecksMatchBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 2000; trial++ {
		buf := make([]byte, rng.Intn(40))
		for i := range buf {
			// Mostly small values, so that both answers occur.
			buf[i] = byte(rng.Intn(1 + rng.Intn(256)))
		}
		limit := rng.Intn(16)
		wantEntries, wantOver := 0, false
		for _, b := range buf {
			for _, nib := range []byte{b & 15, b >> 4} {
				if nib != 0 {
					wantEntries++
				}
				wantOver = wantOver || int(nib) > limit
			}
		}
		if entries, over := countNibbles(buf), nibblesBeyond(buf, limit); entries != wantEntries || over != wantOver {
			t.Fatalf("countNibbles, nibblesBeyond(%v, %d) = %d, %v, want %d, %v", buf, limit, entries, over, wantEntries, wantOver)
		}
	}
}
