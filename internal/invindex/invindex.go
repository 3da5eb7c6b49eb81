// Package invindex provides the document inverted index used by kSP
// processing: it maps a term ID to the posting list of vertices whose
// documents contain the term (Table 1 of the paper). FromGraph builds it
// as a MemIndex; a snapshot stores the documents it is built from, not
// the index. The list Builder, which sorts and de-duplicates postings
// added in any order, is the reference the tests of the α-radius index
// and of the engine compare against. The α-radius files themselves are
// alpha.Files, whose images the snapshot stores and maps as they are (the
// paper's disk-resident inverted files, of which "for each query only a
// small portion of the index is relevant"); they implement Index too.
package invindex

import (
	"cmp"
	"math/bits"
	"slices"
)

// Posting is one entry of a posting list: the vertex (or R-tree entry)
// holding the term, plus a small weight. The document index stores weight
// 0; the α-radius index stores the graph distance dg ≤ α.
type Posting struct {
	ID     uint32
	Weight uint8
}

// Index is the read interface shared by the document index and the
// α-radius files.
type Index interface {
	// Postings appends the posting list of term to dst and returns it.
	// Unknown terms yield an empty list.
	Postings(term uint32, dst []Posting) ([]Posting, error)
	// NumTerms returns the size of the term space (max term ID + 1).
	NumTerms() int
	// NumPostings returns the total number of postings.
	NumPostings() int64
}

// Builder accumulates postings; Add may be called in any order.
type Builder struct {
	lists [][]Posting
	total int64
}

// NewBuilder returns an empty Builder.
func NewBuilder() *Builder { return &Builder{} }

// Reserve ensures the term-ID space covers terms [0, n), so that NumTerms
// of the built index matches the vocabulary even when trailing terms have
// no postings.
func (b *Builder) Reserve(n int) {
	for len(b.lists) < n {
		b.lists = append(b.lists, nil)
	}
}

// Add records that term occurs at id with the given weight.
func (b *Builder) Add(term uint32, id uint32, weight uint8) {
	for uint32(len(b.lists)) <= term {
		b.lists = append(b.lists, nil)
	}
	b.lists[term] = append(b.lists[term], Posting{ID: id, Weight: weight})
	b.total++
}

// Build returns an in-memory index whose posting lists are sorted by ID,
// keeping for duplicate IDs the smallest weight. A list that was added
// strictly ascending is already final and is neither sorted nor scanned
// for duplicates. Every
// term of the result is held as a list: a Builder does not know the ID
// universe a bitset would span.
func (b *Builder) Build() *MemIndex {
	off := make([]uint64, len(b.lists)+1)
	var total int64
	for t, pl := range b.lists {
		if !strictlyAscending(pl) {
			slices.SortFunc(pl, func(x, y Posting) int {
				if c := cmp.Compare(x.ID, y.ID); c != 0 {
					return c
				}
				return cmp.Compare(x.Weight, y.Weight)
			})
			k := 0
			for i, p := range pl {
				if i > 0 && p.ID == pl[i-1].ID {
					continue // keep first (smallest weight)
				}
				pl[k] = p
				k++
			}
			b.lists[t] = pl[:k]
		}
		total += int64(len(b.lists[t]))
		off[t+1] = uint64(total)
	}
	posts := make([]Posting, 0, total)
	for _, pl := range b.lists {
		posts = append(posts, pl...)
	}
	b.lists = nil
	b.total = 0
	return &MemIndex{off: off, posts: posts, total: total}
}

// strictlyAscending reports whether every posting's ID exceeds the one
// before it: sorted, and free of duplicates.
func strictlyAscending(pl []Posting) bool {
	for i := 1; i < len(pl); i++ {
		if pl[i].ID <= pl[i-1].ID {
			return false
		}
	}
	return true
}

// MemIndex is the in-memory representation. It holds each term in one of
// two forms: a strictly ascending posting list, or a bitset of nw words
// over the ID universe. FromGraph chooses by size alone — a bitset iff
// 64·df > |V|, when it is smaller than the eight-byte postings it replaces
// — and Builder.Build, which knows no universe, makes lists only. The
// lists lie back to back in one posting arena and the bitsets in one word
// arena, both addressed from a single offset table, so a term costs eight
// bytes of table whatever its form.
type MemIndex struct {
	// off[t] packs two running counts at the start of term t: the
	// postings of the list-form terms before t (the low listBits bits) and
	// the number of bitset-form terms before t (the bits above). Term t is
	// a bitset iff the second count steps from off[t] to off[t+1];
	// len(off) is the number of terms plus one.
	off   []uint64
	posts []Posting
	words []uint64 // bitset k is words[k*nw : (k+1)*nw]
	df    []uint32 // df[k] is the population of bitset k
	nw    int
	total int64
}

const (
	listBits = 40
	listMask = 1<<listBits - 1
	// maxBitsets is how many bitset-form terms the table's high bits
	// count; beyond it (an average document of 2^18 terms) a term stays a
	// list.
	maxBitsets = 1<<(64-listBits) - 1
)

// Term returns term t as the index holds it, in place: its list (set
// nil), or its bitset over IDs — bit v%64 of word v/64 is set iff ID v
// holds the term — and that bitset's population (list nil). An unknown
// term is an empty list. Both are the index's own immutable memory,
// valid as long as m.
func (m *MemIndex) Term(t uint32) (list []Posting, set []uint64, df int) {
	if int(t) >= m.NumTerms() {
		return nil, nil, 0
	}
	a, b := m.off[t], m.off[t+1]
	if k := int(a >> listBits); int(b>>listBits) != k {
		return nil, m.words[k*m.nw : (k+1)*m.nw : (k+1)*m.nw], int(m.df[k])
	}
	list = m.posts[a&listMask : b&listMask : b&listMask]
	return list, nil, len(list)
}

// Postings implements Index. A bitset is read back in ascending ID order,
// with weight 0 — the document index's weight.
func (m *MemIndex) Postings(term uint32, dst []Posting) ([]Posting, error) {
	list, set, _ := m.Term(term)
	for w, word := range set {
		for ; word != 0; word &= word - 1 {
			dst = append(dst, Posting{ID: uint32(w<<6 | bits.TrailingZeros64(word))})
		}
	}
	return append(dst, list...), nil
}

// NumTerms implements Index.
func (m *MemIndex) NumTerms() int { return max(len(m.off)-1, 0) }

// NumPostings implements Index.
func (m *MemIndex) NumPostings() int64 { return m.total }

// MemSize returns the in-memory footprint in bytes: the offset table, the
// two arenas and the bitsets' populations.
func (m *MemIndex) MemSize() int64 {
	return 8*int64(cap(m.off)) + 8*int64(cap(m.posts)) + 8*int64(cap(m.words)) + 4*int64(cap(m.df))
}
