package alpha

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"ksp/internal/invindex"
)

// maxColumnRadius is the largest α whose distances fit a column: a
// nibble holds d+1, and 0 says the term is beyond α of the entry.
const maxColumnRadius = 14

// noOrd is the ordinal of an ID outside a universe.
const noOrd = ^uint32(0)

// universe is the ID space one inverted file ranges over: n entries, of
// which ordinal o stands for ids[o]. A place file ranges over the indexed
// places in ascending vertex-ID order, and ord is the inverse table; a
// node file ranges over the R-tree's node IDs 0…n-1 as they are, with
// neither table.
type universe struct {
	n   int
	ids []uint32 // ordinal -> ID, strictly ascending; nil: ordinal o is ID o
	ord []uint32 // ID -> ordinal, noOrd for an ID outside; nil with ids
}

// placeUniverse numbers ids, which must ascend strictly.
func placeUniverse(ids []uint32) universe {
	if len(ids) == 0 {
		return universe{}
	}
	u := universe{n: len(ids), ids: ids, ord: make([]uint32, ids[len(ids)-1]+1)}
	for i := range u.ord {
		u.ord[i] = noOrd
	}
	for o, id := range ids {
		u.ord[id] = uint32(o)
	}
	return u
}

// ordinal returns id's position in the universe, noOrd when it has none.
func (u *universe) ordinal(id uint32) uint32 {
	if u.ord != nil {
		if int(id) < len(u.ord) {
			return u.ord[id]
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
		return u.ids[o]
	}
	return uint32(o)
}

// stride is the length of a column over the universe: a nibble per entry.
func (u *universe) stride() int { return (u.n + 1) / 2 }

// columnFor decides the representation of a term with count entries by
// size alone: a column where it is smaller than the eight-byte postings
// and the radius fits a nibble. A list that covers more than a sixteenth
// of the universe is a column.
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
		n += bits.OnesCount64(entryBits(binary.LittleEndian.Uint64(col)))
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
		if x := binary.LittleEndian.Uint64(col[i:]); x != 0 {
			word(uint32(2*i), x)
		}
	}
	for ; i < len(col); i++ {
		word(uint32(2*i), uint64(col[i]))
	}
}

// termRep is one term of a File: a column or a list, never both; neither
// for a term without entries.
type termRep struct {
	// col holds one nibble per ordinal of the universe: 0 where the term
	// is beyond α of the entry, else dg+1.
	col []byte
	// list is the strictly ID-ascending posting list.
	list []invindex.Posting
}

// File is one inverted file of the α index as it is held in memory. A
// term that few entries have within α keeps its posting list; a frequent
// one is a column the bounds read in place (universe.columnFor draws the
// line). Either way Postings gives the same strictly ascending list, so
// a File is written, restricted and compared like any invindex.Index.
type File struct {
	universe
	terms []termRep
	total int64
}

// column returns term's column, nil when it is kept as a list — or when f
// is nil: an inverted file of another representation offers no columns.
func (f *File) column(term uint32) []byte {
	if f == nil || int(term) >= len(f.terms) {
		return nil
	}
	return f.terms[term].col
}

// columnsOf returns ix as the File it is, nil when it is something else.
func columnsOf(ix invindex.Index) *File {
	f, _ := ix.(*File)
	return f
}

// Postings implements invindex.Index. A column is read back into the list
// it stands for, in ascending ID order.
func (f *File) Postings(term uint32, dst []invindex.Posting) ([]invindex.Posting, error) {
	if int(term) >= len(f.terms) {
		return dst, nil
	}
	r := f.terms[term]
	if r.col == nil {
		return append(dst, r.list...), nil
	}
	eachNibble(r.col, func(o uint32, d uint8) {
		dst = append(dst, invindex.Posting{ID: f.id(int(o)), Weight: d})
	})
	return dst, nil
}

// NumTerms implements invindex.Index.
func (f *File) NumTerms() int { return len(f.terms) }

// NumPostings implements invindex.Index.
func (f *File) NumPostings() int64 { return f.total }

// MemSize returns the in-memory footprint in bytes: two slice headers per
// term, the columns, eight bytes per posting slot of the lists, and the
// universe's two tables. A nil File takes none.
func (f *File) MemSize() int64 {
	if f == nil {
		return 0
	}
	sz := int64(len(f.terms))*48 + int64(cap(f.ids)+cap(f.ord))*4
	for _, r := range f.terms {
		sz += int64(cap(r.col)) + int64(cap(r.list))*8
	}
	return sz
}

// chunk collects the finished terms of a run of consecutive terms, one
// after the other, in buffers its worker reuses; cutInto then moves them
// into two allocations of exact size.
type chunk struct {
	u      *universe
	radius int
	cols   []byte
	post   []invindex.Posting
	spans  []span
	total  int64 // postings the terms added stand for
}

// span closes one term of a chunk: where its column or its list ends.
type span struct {
	column bool
	end    int
}

func (c *chunk) reset() {
	c.cols, c.post, c.spans, c.total = c.cols[:0], c.post[:0], c.spans[:0], 0
}

// newColumn appends an empty column and returns it.
func (c *chunk) newColumn() []byte {
	lo := len(c.cols)
	c.cols = slices.Grow(c.cols, c.u.stride())[:lo+c.u.stride()]
	c.spans = append(c.spans, span{column: true, end: len(c.cols)})
	col := c.cols[lo:]
	clear(col)
	return col
}

func (c *chunk) endList() { c.spans = append(c.spans, span{end: len(c.post)}) }

// add appends one term given in either form over the chunk's universe, in
// the form columnFor picks for it.
func (c *chunk) add(e termRep) {
	if e.col == nil {
		c.total += int64(len(e.list))
		if c.u.columnFor(len(e.list), c.radius) {
			col := c.newColumn()
			for _, p := range e.list {
				setNibble(col, c.u.ordinal(p.ID), p.Weight+1)
			}
			return
		}
		c.post = append(c.post, e.list...)
		c.endList()
		return
	}
	count := countNibbles(e.col)
	c.total += int64(count)
	if c.u.columnFor(count, c.radius) {
		copy(c.newColumn(), e.col)
		return
	}
	eachNibble(e.col, func(o uint32, d uint8) {
		c.post = append(c.post, invindex.Posting{ID: c.u.id(int(o)), Weight: d})
	})
	c.endList()
}

// addMins appends the term whose entries are the keys offered to m, which
// ranges over the chunk's universe, with their minima.
func (c *chunk) addMins(m *minTable) {
	c.total += int64(len(m.touched))
	if c.u.columnFor(len(m.touched), c.radius) {
		col := c.newColumn()
		for _, k := range m.touched {
			setNibble(col, c.u.ordinal(k), m.cell[k].min+1)
		}
		return
	}
	c.post = m.appendSorted(c.post)
	c.endList()
}

// cutInto copies the chunk's columns into one allocation of exact size
// and its lists into another, makes terms — one slot per term added —
// their sub-slices, and returns the number of postings they stand for.
func (c *chunk) cutInto(terms []termRep) int64 {
	cols := append(make([]byte, 0, len(c.cols)), c.cols...)
	post := append(make([]invindex.Posting, 0, len(c.post)), c.post...)
	colLo, postLo := 0, 0
	for i, s := range c.spans {
		switch {
		case s.column:
			terms[i].col = cols[colLo:s.end:s.end]
			colLo = s.end
		case s.end > postLo:
			terms[i].list = post[postLo:s.end:s.end]
			postLo = s.end
		}
	}
	return c.total
}
