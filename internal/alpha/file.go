package alpha

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"

	"ksp/internal/invindex"
)

// maxColumnRadius is the largest α whose distances fit a column: a
// nibble holds d+1, and 0 says the term is beyond α of the entry.
const maxColumnRadius = 14

// noOrd is the ordinal of an ID outside a universe.
const noOrd = ^uint32(0)

// le is the byte order of every word of an image.
var le = binary.LittleEndian

// universe is the ID space one inverted file ranges over: n entries, of
// which ordinal o stands for ids[o]. A place file ranges over the indexed
// places in ascending vertex-ID order, and ord is the inverse table; a
// node file ranges over the R-tree's node IDs 0…n-1 as they are, with
// neither table. Both tables are arrays of little-endian uint32s, as they
// lie in the file's image.
type universe struct {
	n   int
	ids []byte // ordinal -> ID, strictly ascending; nil: ordinal o is ID o
	ord []byte // ID -> ordinal, noOrd for an ID outside; nil with ids
}

// placeUniverse numbers ids, which must ascend strictly.
func placeUniverse(ids []uint32) universe {
	if len(ids) == 0 {
		return universe{ids: []byte{}, ord: []byte{}}
	}
	u := universe{n: len(ids), ids: make([]byte, 4*len(ids)), ord: make([]byte, 4*(ids[len(ids)-1]+1))}
	for i := 0; i < len(u.ord); i += 4 {
		le.PutUint32(u.ord[i:], noOrd)
	}
	for o, id := range ids {
		le.PutUint32(u.ids[4*o:], id)
		le.PutUint32(u.ord[4*id:], uint32(o))
	}
	return u
}

// ordinal returns id's position in the universe, noOrd when it has none.
func (u *universe) ordinal(id uint32) uint32 {
	if u.ord != nil {
		if at := 4 * uint64(id); at < uint64(len(u.ord)) {
			return le.Uint32(u.ord[at:])
		}
		return noOrd
	}
	if int(id) < u.n {
		return id
	}
	return noOrd
}

// id returns the ID at ordinal o.
func (u *universe) id(o int) uint32 {
	if u.ids != nil {
		return le.Uint32(u.ids[4*o:])
	}
	return uint32(o)
}

// stride is the length of a column over the universe: a nibble per entry.
func (u *universe) stride() int { return (u.n + 1) / 2 }

// columnFor decides the representation of a term with count entries by
// size alone: a column where it is smaller than an eight-byte posting per
// entry and the radius fits a nibble. A list that covers more than a
// sixteenth of the universe is a column.
func (u *universe) columnFor(count, radius int) bool {
	return radius <= maxColumnRadius && u.stride() < 8*count
}

func nibble(col []byte, o uint32) uint8 { return col[o>>1] >> ((o & 1) << 2) & 15 }

// setNibble writes v into the still empty nibble o.
func setNibble(col []byte, o uint32, v uint8) { col[o>>1] |= v << ((o & 1) << 2) }

// lowBits has the lowest bit of every nibble of a word set.
const lowBits = 0x1111111111111111

// entryBits folds the four bits of every nibble of x onto its lowest: the
// result has one bit set per entry in x.
func entryBits(x uint64) uint64 {
	x |= x >> 2
	x |= x >> 1
	return x & lowBits
}

// countNibbles returns the number of entries of col, eight bytes at a time.
func countNibbles(col []byte) (n int) {
	for ; len(col) >= 8; col = col[8:] {
		n += bits.OnesCount64(entryBits(le.Uint64(col)))
	}
	for _, b := range col {
		n += bits.OnesCount64(entryBits(uint64(b)))
	}
	return n
}

// eachNibble calls do(o, d) for every entry of col, in ascending ordinal.
// It looks at sixteen ordinals at a time and steps from entry to entry, so
// that the empty stretches of a column cost next to nothing and no branch
// depends on whether a single nibble is set.
func eachNibble(col []byte, do func(o uint32, d uint8)) {
	word := func(base uint32, x uint64) {
		for m := entryBits(x); m != 0; m &= m - 1 {
			at := uint32(bits.TrailingZeros64(m))
			do(base+at>>2, uint8(x>>at)&15-1)
		}
	}
	i := 0
	for ; i+8 <= len(col); i += 8 {
		if x := le.Uint64(col[i:]); x != 0 {
			word(uint32(2*i), x)
		}
	}
	for ; i < len(col); i++ {
		word(uint32(2*i), uint64(col[i]))
	}
}

// termRep is one term of an inverted file: a column or a list, never
// both; neither for a term without entries.
type termRep struct {
	// col holds one nibble per ordinal of the universe: 0 where the term
	// is beyond α of the entry, else dg+1.
	col []byte
	// ids holds the strictly ascending entry IDs of a list, four
	// little-endian bytes each, and w their distances, a byte each.
	ids, w []byte
}

// File is one inverted file of the α index. A term that few entries have
// within α keeps its posting list; a frequent one is a column the bounds
// read in place (universe.columnFor draws the line). Either way Postings
// gives the same strictly ascending list, so a File is written, restricted
// and compared like any invindex.Index.
//
// A File is a view over its image, one byte slice laid out as follows,
// every word little-endian:
//
//	header   4 × uint64: universe size n, terms, columns, list postings
//	ids      n × uint32, place file only: ordinal -> vertex ID, ascending
//	ord      (ids[n-1]+1) × uint32, place file only: vertex ID -> ordinal
//	table    (terms+1) × uint64: before term t, the columns << 40 | the
//	         list postings (packed like invindex.MemIndex's offsets)
//	columns  columns × ⌈n/2⌉ bytes, a nibble per ordinal
//	list IDs list postings × uint32, each list strictly ascending
//	weights  list postings × uint8, the distance of each list ID
//
// Build and Restrict write the image on the heap; a snapshot stores it as
// it is and reads it back into one slice or maps it, and OpenPlaces or
// OpenNodes checks it once before it is served. Every accessor is a slice
// or a read of the image.
type File struct {
	universe
	img      []byte // the whole image, header first
	table    []byte
	cols     []byte
	postIDs  []byte
	postW    []byte
	numTerms int
}

const (
	// HeaderLen is the length of an image's header.
	HeaderLen = 32
	listBits  = 40
	listMask  = 1<<listBits - 1
	// maxColumns is how many columns the table's high bits count.
	maxColumns = 1<<(64-listBits) - 1
)

// layout is where the parts of an image lie, in bytes from its start.
type layout struct {
	n, numTerms, columns, posts    int
	ids, ord, table, cols, postIDs int
	postW, end                     int
}

// errImage marks an image that no build writes.
var errImage = errors.New("alpha: damaged index image")

// newLayout places the parts of the image of a file with the given
// counts, whose ord table holds ordLen words; a node file (place unset)
// has neither universe table.
func newLayout(n, numTerms, columns, posts, ordLen int, place bool) layout {
	l := layout{n: n, numTerms: numTerms, columns: columns, posts: posts}
	l.ids = HeaderLen
	l.ord = l.ids
	if place {
		l.ord += 4 * n
	}
	l.table = l.ord + 4*ordLen
	l.cols = l.table + 8*(numTerms+1)
	l.postIDs = l.cols + columns*((n+1)/2)
	l.postW = l.postIDs + 4*posts
	l.end = l.postW + posts
	return l
}

// parseLayout reads the header of an image, of the place file over
// places (the snapshot's places, ascending) or, when place is unset, of
// the node file, and returns where every part lies. Every count is
// bounded before it is multiplied, so the sums cannot overflow.
func parseLayout(head []byte, place bool, places []uint32) (layout, error) {
	if len(head) < HeaderLen {
		return layout{}, fmt.Errorf("%w: %d header bytes", errImage, len(head))
	}
	n, terms, columns, posts := le.Uint64(head), le.Uint64(head[8:]), le.Uint64(head[16:]), le.Uint64(head[24:])
	if n > 1<<32 || terms > 1<<32 || columns > min(terms, maxColumns) || posts > listMask {
		return layout{}, fmt.Errorf("%w: header counts %d, %d, %d, %d", errImage, n, terms, columns, posts)
	}
	ordLen := 0
	if place {
		if int(n) != len(places) {
			return layout{}, fmt.Errorf("%w: a universe of %d entries, the snapshot has %d places", errImage, n, len(places))
		}
		if len(places) > 0 {
			ordLen = int(places[len(places)-1]) + 1
		}
	}
	return newLayout(int(n), int(terms), int(columns), int(posts), ordLen, place), nil
}

// newFile allocates the image of a file over u with the given counts,
// writes its header and universe, and returns it for the caller to fill
// the table, the columns and the lists.
func newFile(u *universe, numTerms, columns, posts int) *File {
	if columns > maxColumns {
		panic(fmt.Sprintf("alpha: %d columns, at most %d", columns, maxColumns))
	}
	place := u.ids != nil
	l := newLayout(u.n, numTerms, columns, posts, len(u.ord)/4, place)
	img := make([]byte, l.end)
	for i, count := range []int{u.n, numTerms, columns, posts} {
		le.PutUint64(img[8*i:], uint64(count))
	}
	copy(img[l.ids:], u.ids)
	copy(img[l.ord:], u.ord)
	return viewOf(img, l, place)
}

// viewOf slices img along l.
func viewOf(img []byte, l layout, place bool) *File {
	part := func(lo, hi int) []byte { return img[lo:hi:hi] }
	f := &File{
		img:      img[:l.end:l.end],
		table:    part(l.table, l.cols),
		cols:     part(l.cols, l.postIDs),
		postIDs:  part(l.postIDs, l.postW),
		postW:    part(l.postW, l.end),
		numTerms: l.numTerms,
	}
	f.n = l.n
	if place {
		f.ids, f.ord = part(l.ids, l.ord), part(l.ord, l.table)
	}
	return f
}

// setTerm records in the table that term t begins after the given
// numbers of columns and list postings.
func (f *File) setTerm(t, columns, posts int) {
	le.PutUint64(f.table[8*t:], uint64(columns)<<listBits|uint64(posts))
}

// span returns the table entries around term t.
func (f *File) span(t uint32) (a, b uint64) {
	return le.Uint64(f.table[8*t:]), le.Uint64(f.table[8*t+8:])
}

// term returns term t as the image holds it.
func (f *File) term(t uint32) termRep {
	if int(t) >= f.numTerms {
		return termRep{}
	}
	a, b := f.span(t)
	if k := int(a >> listBits); int(b>>listBits) != k {
		s := f.stride()
		return termRep{col: f.cols[k*s : (k+1)*s : (k+1)*s]}
	}
	lo, hi := a&listMask, b&listMask
	return termRep{ids: f.postIDs[4*lo : 4*hi : 4*hi], w: f.postW[lo:hi:hi]}
}

// Image returns the bytes of the file: what a snapshot stores, and what
// OpenPlaces or OpenNodes serves again. They must not be written to.
func (f *File) Image() []byte { return f.img }

// Postings implements invindex.Index. A column is read back into the list
// it stands for, in ascending ID order.
func (f *File) Postings(term uint32, dst []invindex.Posting) ([]invindex.Posting, error) {
	r := f.term(term)
	if r.col == nil {
		for i, d := range r.w {
			dst = append(dst, invindex.Posting{ID: le.Uint32(r.ids[4*i:]), Weight: d})
		}
		return dst, nil
	}
	eachNibble(r.col, func(o uint32, d uint8) {
		dst = append(dst, invindex.Posting{ID: f.id(int(o)), Weight: d})
	})
	return dst, nil
}

// NumTerms implements invindex.Index.
func (f *File) NumTerms() int { return f.numTerms }

// Universe returns how many entries the file ranges over: the places of a
// place file, the R-tree's nodes of a node file.
func (f *File) Universe() int { return f.n }

// NumPostings implements invindex.Index: the list postings and the
// entries of the columns, counted on every call.
func (f *File) NumPostings() int64 { return int64(len(f.postW) + countNibbles(f.cols)) }

// PlaceImageLen returns the length of the image of a place file over
// places, the snapshot's places in ascending order, whose first HeaderLen
// bytes are head: how far a reader streaming an image must read.
func PlaceImageLen(head []byte, places []uint32) (int, error) {
	l, err := parseLayout(head, true, places)
	return l.end, err
}

// NodeImageLen is PlaceImageLen for a node file.
func NodeImageLen(head []byte) (int, error) {
	l, err := parseLayout(head, false, nil)
	return l.end, err
}

// OpenPlaces serves img as the place file of an index of the given
// radius over places, the snapshot's places in ascending order, once it
// has checked everything the bounds rely on (checkUniverse, check). The
// File is a view of img, which must not change while the File is in use.
func OpenPlaces(img []byte, alphaRadius int, places []uint32) (*File, error) {
	return open(img, alphaRadius, true, places)
}

// OpenNodes is OpenPlaces for the node file, whose universe is the node
// IDs below the size its header gives.
func OpenNodes(img []byte, alphaRadius int) (*File, error) {
	return open(img, alphaRadius, false, nil)
}

func open(img []byte, alphaRadius int, place bool, places []uint32) (*File, error) {
	l, err := parseLayout(img, place, places)
	if err != nil {
		return nil, err
	}
	if len(img) != l.end {
		return nil, fmt.Errorf("%w: %d bytes, its header makes it %d", errImage, len(img), l.end)
	}
	f := viewOf(img, l, place)
	if place {
		if err := f.checkUniverse(places); err != nil {
			return nil, err
		}
	}
	if err := f.check(alphaRadius, l); err != nil {
		return nil, err
	}
	return f, nil
}

// check verifies, a word at a time where it can, what the bounds rely
// on besides the universe (checkUniverse):
//   - the table ascends from 0 to the header's counts, and each term
//     steps the column count by one or the list count by some;
//   - every list ascends strictly, names an entry of the universe, and
//     has no distance beyond the radius;
//   - every nibble is at most radius+1, and the pad nibble of a column
//     over an odd universe is 0 (Postings would read it as an entry).
//
// Once the table holds, the lists and the columns are checked by all
// CPUs, a run of terms or of columns at a time.
func (f *File) check(radius int, l layout) error {
	end := uint64(l.columns)<<listBits | uint64(l.posts)
	if le.Uint64(f.table) != 0 || le.Uint64(f.table[8*f.numTerms:]) != end {
		return fmt.Errorf("%w: the term table does not run from 0 to %d columns and %d list postings", errImage, l.columns, l.posts)
	}
	for t, a := 0, uint64(0); t < f.numTerms; t++ {
		b := le.Uint64(f.table[8*t+8:])
		colStep, lo, hi := b>>listBits-a>>listBits, a&listMask, b&listMask
		if b>>listBits > end>>listBits || hi > end&listMask || hi < lo || colStep > 1 || colStep == 1 && hi != lo {
			return fmt.Errorf("%w: term %d spans table entries %#x to %#x", errImage, t, a, b)
		}
		a = b
	}
	for i, d := range f.postW {
		if int(d) > radius {
			return fmt.Errorf("%w: list posting %d at distance %d, beyond the radius %d", errImage, i, d, radius)
		}
	}
	var failed atomic.Pointer[error]
	fail := func(err error) { failed.CompareAndSwap(nil, &err) }
	parallel(f.numTerms, termChunk, func() func(lo, hi int) {
		return func(lo, hi int) {
			for t := lo; t < hi; t++ {
				a, b := f.span(uint32(t))
				if err := f.checkList(f.postIDs[4*(a&listMask) : 4*(b&listMask)]); err != nil {
					fail(fmt.Errorf("%w: term %d %v", errImage, t, err))
					return
				}
			}
		}
	})
	s := f.stride()
	parallel(l.columns, columnChunk, func() func(lo, hi int) {
		return func(lo, hi int) {
			cols := f.cols[lo*s : hi*s]
			if nibblesBeyond(cols, min(radius+1, 15)) {
				fail(fmt.Errorf("%w: a nibble beyond %d in columns %d to %d", errImage, radius+1, lo, hi-1))
				return
			}
			for end := s; f.n%2 == 1 && end <= len(cols); end += s {
				if cols[end-1]>>4 != 0 {
					fail(fmt.Errorf("%w: column %d sets the pad nibble", errImage, lo+end/s-1))
					return
				}
			}
		}
	})
	if err := failed.Load(); err != nil {
		return *err
	}
	return nil
}

// columnChunk is how many columns a worker of check takes at a time.
const columnChunk = 64

// checkUniverse verifies that the file's universe is places and that ord
// inverts ids: every entry of ord is noOrd or the ordinal of its own
// index, and n of them are not.
func (f *File) checkUniverse(places []uint32) error {
	for o, p := range places {
		if f.id(o) != p {
			return fmt.Errorf("%w: universe entry %d is %d, the snapshot's place is %d", errImage, o, f.id(o), p)
		}
	}
	inside := 0
	for id := 0; 4*id < len(f.ord); id++ {
		o := le.Uint32(f.ord[4*id:])
		if o == noOrd {
			continue
		}
		if int(o) >= f.n || f.id(int(o)) != uint32(id) {
			return fmt.Errorf("%w: ord maps %d to ordinal %d", errImage, id, o)
		}
		inside++
	}
	if inside != f.n {
		return fmt.Errorf("%w: ord maps %d IDs to ordinals, the universe has %d", errImage, inside, f.n)
	}
	return nil
}

// checkList verifies that the list IDs ids ascend strictly and stay
// inside the universe.
func (f *File) checkList(ids []byte) error {
	prev := int64(-1)
	for ; len(ids) >= 4; ids = ids[4:] {
		id := le.Uint32(ids)
		if int64(id) <= prev {
			return fmt.Errorf("lists entry %d after entry %d", id, prev)
		}
		if f.ordinal(id) == noOrd {
			return fmt.Errorf("lists entry %d, outside its universe", id)
		}
		prev = int64(id)
	}
	return nil
}

// nibblesBeyond reports whether a nibble of cols exceeds limit, eight
// bytes at a time: the even and the odd nibbles each get a byte of their
// own, where adding 15-limit carries into the byte's fifth bit exactly
// when the nibble is above limit.
func nibblesBeyond(cols []byte, limit int) bool {
	const low, fifth = 0x0F0F0F0F0F0F0F0F, 0x1010101010101010
	add := uint64(15-limit) * 0x0101010101010101
	var bad uint64
	for ; len(cols) >= 8; cols = cols[8:] {
		x := le.Uint64(cols)
		bad |= (x&low + add) | (x>>4&low + add)
	}
	for _, b := range cols {
		x := uint64(b)
		bad |= (x&low + add) | (x>>4&low + add)
	}
	return bad&fifth != 0
}

// chunk collects the finished terms of a run of consecutive terms, one
// after the other, in buffers its worker reuses; cut then copies them
// into a piece of exact size.
type chunk struct {
	u       *universe
	radius  int
	columns int
	cols    []byte
	ids, w  []byte
	ends    []uint64 // per term added: its table entry after it, within the chunk
}

func (c *chunk) reset() {
	c.columns = 0
	c.cols, c.ids, c.w, c.ends = c.cols[:0], c.ids[:0], c.w[:0], c.ends[:0]
}

// newColumn appends an empty column and returns it.
func (c *chunk) newColumn() []byte {
	lo := len(c.cols)
	c.cols = slices.Grow(c.cols, c.u.stride())[:lo+c.u.stride()]
	c.columns++
	col := c.cols[lo:]
	clear(col)
	return col
}

func (c *chunk) appendPosting(id uint32, d uint8) {
	c.ids, c.w = le.AppendUint32(c.ids, id), append(c.w, d)
}

// endTerm closes the term added last.
func (c *chunk) endTerm() {
	c.ends = append(c.ends, uint64(c.columns)<<listBits|uint64(len(c.w)))
}

// add appends one term given in either form over the chunk's universe, in
// the form columnFor picks for it.
func (c *chunk) add(e termRep) {
	defer c.endTerm()
	if e.col == nil {
		if !c.u.columnFor(len(e.w), c.radius) {
			c.ids, c.w = append(c.ids, e.ids...), append(c.w, e.w...)
			return
		}
		col := c.newColumn()
		for i, d := range e.w {
			setNibble(col, c.u.ordinal(le.Uint32(e.ids[4*i:])), d+1)
		}
		return
	}
	if c.u.columnFor(countNibbles(e.col), c.radius) {
		copy(c.newColumn(), e.col)
		return
	}
	eachNibble(e.col, func(o uint32, d uint8) { c.appendPosting(c.u.id(int(o)), d) })
}

// addMins appends the term whose entries are the keys offered to m, which
// ranges over the chunk's universe, with their minima.
func (c *chunk) addMins(m *minTable) {
	defer c.endTerm()
	if c.u.columnFor(len(m.touched), c.radius) {
		col := c.newColumn()
		for _, k := range m.touched {
			setNibble(col, c.u.ordinal(k), m.cell[k].min+1)
		}
		return
	}
	c.ids, c.w = m.appendSorted(c.ids, c.w)
}

// piece is what a chunk leaves of its terms at exact size: their table
// entries within the chunk, their columns, and their lists.
type piece struct {
	ends         []uint64
	cols, ids, w []byte
}

func (c *chunk) cut() piece {
	return piece{ends: slices.Clone(c.ends), cols: slices.Clone(c.cols), ids: slices.Clone(c.ids), w: slices.Clone(c.w)}
}

// assemble writes the image of a file over u from the pieces of its
// consecutive term chunks, in term order.
func assemble(u *universe, numTerms int, pieces []piece) *File {
	// last is a piece's table entry after its last term: its columns and
	// its list postings.
	last := func(p piece) uint64 {
		if len(p.ends) == 0 {
			return 0
		}
		return p.ends[len(p.ends)-1]
	}
	columns, posts := 0, 0
	for _, p := range pieces {
		columns += int(last(p) >> listBits)
		posts += int(last(p) & listMask)
	}
	f := newFile(u, numTerms, columns, posts)
	t, col, post := 0, 0, 0
	for _, p := range pieces {
		copy(f.cols[col*f.stride():], p.cols)
		copy(f.postIDs[4*post:], p.ids)
		copy(f.postW[post:], p.w)
		for _, e := range p.ends {
			t++
			f.setTerm(t, col+int(e>>listBits), post+int(e&listMask))
		}
		col, post = col+int(last(p)>>listBits), post+int(last(p)&listMask)
	}
	return f
}
