// Package invindex provides the inverted index used by kSP processing: it
// maps a term ID to the posting list of vertices whose documents contain
// the term (Table 1 of the paper), and — for the α-radius word
// neighbourhoods of Section 5 — posting lists of (entry, distance) pairs.
//
// The index has two interchangeable representations: MemIndex, the
// document index the engine queries, and Encoded, which decodes a posting
// list per call from the serialized form Write produces. Large indexes
// can be built as parts and merged (the paper does exactly this for the
// DBpedia α-radius index, which exceeds main memory). The α-radius files
// themselves are no longer served through this package: they are
// alpha.Files, whose images the snapshot stores and maps as they are (the
// paper's disk-resident inverted files, of which "for each query only a
// small portion of the index is relevant"). Snapshots of format versions
// 1 and 2 hold them as Write encodings, which the loader reads with
// ReadFrom.
package invindex

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
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

// Index is the read interface shared by the memory- and disk-resident
// representations.
type Index interface {
	// Postings appends the posting list of term to dst and returns it.
	// Unknown terms yield an empty list.
	Postings(term uint32, dst []Posting) ([]Posting, error)
	// NumTerms returns the size of the term space (max term ID + 1).
	NumTerms() int
	// NumPostings returns the total number of postings.
	NumPostings() int64
}

// AvgPostingLen returns the average posting-list length over terms that
// have at least one posting — the keyword-frequency statistic the paper
// reports for DBpedia (56.46) and Yago (7.83). A MemIndex counts its
// non-empty terms off its offset table without touching posting data;
// any other representation is read term by term.
func AvgPostingLen(ix Index) float64 {
	n := ix.NumPostings()
	if n == 0 {
		return 0
	}
	var nonEmpty int64
	if c, ok := ix.(interface{ NonEmptyTerms() int64 }); ok {
		nonEmpty = c.NonEmptyTerms()
	} else {
		var buf []Posting
		for t := 0; t < ix.NumTerms(); t++ {
			//ksplint:ignore droppederr -- diagnostic statistic; a read failure skews the average, never a query result
			buf, _ = ix.Postings(uint32(t), buf[:0])
			if len(buf) > 0 {
				nonEmpty++
			}
		}
	}
	if nonEmpty == 0 {
		return 0
	}
	return float64(n) / float64(nonEmpty)
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
// strictly ascending — every list Merge makes from ID-disjoint parts — is
// already final and is neither sorted nor scanned for duplicates. Every
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

// NonEmptyTerms returns the number of terms with at least one posting.
func (m *MemIndex) NonEmptyTerms() int64 {
	var n int64
	for t := 1; t < len(m.off); t++ {
		if m.off[t] != m.off[t-1] {
			n++
		}
	}
	return n
}

// MemSize returns the in-memory footprint in bytes: the offset table, the
// two arenas and the bitsets' populations.
func (m *MemIndex) MemSize() int64 {
	return 8*int64(cap(m.off)) + 8*int64(cap(m.posts)) + 8*int64(cap(m.words)) + 4*int64(cap(m.df))
}

// --- Encoding ---
//
// magic uint32 | version uint32 | numTerms uint32 |
// offsets [numTerms+1]uint64 (into the posting area) |
// posting area: per term, varint count, varint delta-encoded IDs,
// then count weight bytes.

const (
	magic   = 0x6B535069 // "kSPi"
	version = 1
)

// Write serializes ix to w, whatever its representation: every list is
// read through Postings, once to size the offset table and once to
// encode it, into one reused buffer, so nothing but the table is held.
func Write(w io.Writer, ix Index) error {
	bw := bufio.NewWriter(w)
	numTerms := ix.NumTerms()
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(numTerms))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var pl []Posting
	var err error
	var scratch [binary.MaxVarintLen64]byte
	offBytes := make([]byte, 8*(numTerms+1))
	var off uint64
	for t := 0; t < numTerms; t++ {
		if pl, err = ix.Postings(uint32(t), pl[:0]); err != nil {
			return err
		}
		off += uint64(binary.PutUvarint(scratch[:], uint64(len(pl))))
		prev := uint32(0)
		for _, p := range pl {
			off += uint64(binary.PutUvarint(scratch[:], uint64(p.ID-prev)))
			prev = p.ID
		}
		off += uint64(len(pl)) // weights
		binary.LittleEndian.PutUint64(offBytes[8*(t+1):], off)
	}
	if _, err := bw.Write(offBytes); err != nil {
		return err
	}
	for t := 0; t < numTerms; t++ {
		if pl, err = ix.Postings(uint32(t), pl[:0]); err != nil {
			return err
		}
		n := binary.PutUvarint(scratch[:], uint64(len(pl)))
		if _, err := bw.Write(scratch[:n]); err != nil {
			return err
		}
		prev := uint32(0)
		for _, p := range pl {
			n := binary.PutUvarint(scratch[:], uint64(p.ID-prev))
			if _, err := bw.Write(scratch[:n]); err != nil {
				return err
			}
			prev = p.ID
		}
		for _, p := range pl {
			if err := bw.WriteByte(p.Weight); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// ReadFrom reads an index previously serialized with Write from a
// sequential stream into memory and serves it from those bytes: only the
// offset table is decoded, and a list is decoded when it is asked for. A
// caller that wants the lists in another shape (the snapshot loader packs
// the α files of old snapshots) reads them once through Postings and
// drops the encoding.
func ReadFrom(r io.Reader) (*Encoded, error) {
	offsets, err := readOffsets(r)
	if err != nil {
		return nil, err
	}
	data, err := readFullCapped(r, int64(offsets[len(offsets)-1]))
	if err != nil {
		return nil, fmt.Errorf("invindex: reading postings: %w", err)
	}
	return &Encoded{data: data, offsets: offsets}, nil
}

// readOffsets consumes the fixed header plus the offset table — the
// resident prefix of the encoding — validating magic, version, and
// offset monotonicity. The stream is left positioned at the posting
// area, whose length is the last offset.
func readOffsets(r io.Reader) ([]uint64, error) {
	var hdr [12]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("invindex: reading header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, errors.New("invindex: bad magic")
	}
	if binary.LittleEndian.Uint32(hdr[4:]) != version {
		return nil, errors.New("invindex: unsupported version")
	}
	numTerms := int(binary.LittleEndian.Uint32(hdr[8:]))
	offBytes, err := readFullCapped(r, 8*(int64(numTerms)+1))
	if err != nil {
		return nil, fmt.Errorf("invindex: reading offsets: %w", err)
	}
	offsets := make([]uint64, numTerms+1)
	for i := range offsets {
		offsets[i] = binary.LittleEndian.Uint64(offBytes[8*i:])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, errors.New("invindex: corrupt offset table")
		}
	}
	return offsets, nil
}

// readFullCapped reads exactly n bytes, growing the buffer in bounded
// chunks so that a corrupt length prefix fails as stream truncation
// instead of one giant up-front allocation.
func readFullCapped(r io.Reader, n int64) ([]byte, error) {
	const chunk = 1 << 20
	first := n
	if first > chunk {
		first = chunk
	}
	buf := make([]byte, 0, first)
	for int64(len(buf)) < n {
		c := n - int64(len(buf))
		if c > chunk {
			c = chunk
		}
		start := len(buf)
		buf = append(buf, make([]byte, c)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Encoded serves an index encoding that ReadFrom holds in memory. Only
// the offset table is decoded up front; a posting list is decoded per
// call.
type Encoded struct {
	data    []byte // the posting area
	offsets []uint64
}

// NumTerms implements Index.
func (d *Encoded) NumTerms() int { return len(d.offsets) - 1 }

// Postings implements Index, decoding the term's block.
func (d *Encoded) Postings(term uint32, dst []Posting) ([]Posting, error) {
	if int(term) >= d.NumTerms() || d.offsets[term] == d.offsets[term+1] {
		return dst, nil
	}
	return decodeList(d.data[d.offsets[term]:d.offsets[term+1]], dst)
}

func decodeList(buf []byte, dst []Posting) ([]Posting, error) {
	count, n := binary.Uvarint(buf)
	if n <= 0 {
		return dst, errors.New("invindex: corrupt count")
	}
	buf = buf[n:]
	base := len(dst)
	prev := uint32(0)
	for i := uint64(0); i < count; i++ {
		delta, n := binary.Uvarint(buf)
		if n <= 0 {
			return dst, errors.New("invindex: corrupt id")
		}
		buf = buf[n:]
		id := prev + uint32(delta)
		if i == 0 {
			id = uint32(delta)
		}
		dst = append(dst, Posting{ID: id})
		prev = id
	}
	if uint64(len(buf)) < count {
		return dst, errors.New("invindex: corrupt weights")
	}
	for i := uint64(0); i < count; i++ {
		dst[base+int(i)].Weight = buf[i]
	}
	return dst, nil
}

// NumPostings implements Index, reading the per-term counts.
func (d *Encoded) NumPostings() int64 {
	var total int64
	for t := 0; t < d.NumTerms(); t++ {
		if start, end := d.offsets[t], d.offsets[t+1]; start != end {
			c, k := binary.Uvarint(d.data[start:end])
			if k <= 0 {
				return 0
			}
			total += int64(c)
		}
	}
	return total
}
