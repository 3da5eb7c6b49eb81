// Package alpha implements the α-radius word neighbourhoods of Section 5
// of the paper and the bounds derived from them (Lemmas 2-5).
//
// WN(p) of a place p holds, for every term reachable within graph distance
// α from p, the shortest such distance. WN(N) of an R-tree node N is the
// term-wise minimum over the places below N. Both are inverted files keyed
// by term, so that a query only touches the entries of its keywords (the
// paper's Section 5 "Storage" paragraph). A file is a File, a view over
// one image whose layout is the same on the heap, in a snapshot and in a
// mapping of that snapshot: a frequent term is a column of one nibble per
// entry, which a QueryView borrows and reads in place; the posting list of
// any other term it scatters into a dense per-query table. The α-bounds
// on looseness for places (Lemma 2) and nodes (Lemma 4) are one table read
// plus one nibble per borrowed column.
package alpha

import (
	"fmt"
	"sync"

	"ksp/internal/rdf"
)

// Index holds the α-radius word neighbourhoods of all places and R-tree
// nodes, stored as inverted files.
type Index struct {
	Alpha int
	Dir   rdf.Direction

	// PlaceIdx: term -> postings of (place vertex ID, dg(p,t)).
	PlaceIdx *File
	// NodeIdx: term -> postings of (R-tree node ID, dg(N,t)).
	NodeIdx *File

	// qvPool recycles QueryViews (and the dense tables inside them)
	// across queries; the zero value is ready to use, so composite
	// literals constructing Index keep working.
	qvPool sync.Pool
}

// NumPostings returns the total posting counts (places, nodes) — the
// Table 6 size statistic.
func (ix *Index) NumPostings() (places, nodes int64) {
	return ix.PlaceIdx.NumPostings(), ix.NodeIdx.NumPostings()
}

// MemSize returns the bytes of the two files' images, on the heap or in
// a mapping.
func (ix *Index) MemSize() int64 {
	return int64(len(ix.PlaceIdx.Image()) + len(ix.NodeIdx.Image()))
}

// ApproxBytes estimates storage for Table 6: five bytes per posting (4-byte
// ID + distance byte) for both inverted files.
func (ix *Index) ApproxBytes() int64 {
	p, n := ix.NumPostings()
	return (p + n) * 5
}

// maxTerms is the largest keyword count a QueryView can hold: a cell
// counts the keywords within α of an entry in eight bits. Distances are
// bytes, so the sixteen-bit distance sum next to it has room for all of
// them (255 × 255 < 2^16). core.MaxKeywords is well inside.
const maxTerms = 255

// boundTable holds the posting lists of a query's keywords, of one
// inverted file, scattered into a dense array indexed by entry ID (place
// vertex ID or R-tree node ID), so that a bound is one indexed read
// instead of a binary search per keyword. A cell whose epoch is not the
// table's is stale, which lets a recycled table skip the O(|V|) clear (as
// core's seenSet does); an ID beyond the table was never
// scattered, so every keyword is absent.
type boundTable struct {
	cell  []boundCell
	epoch uint32
}

// boundCell is what Lemmas 2 and 4 need of one entry, in eight bytes:
// how many query keywords lie within α of it and the sum of their
// distances, under the epoch of the query that wrote them.
type boundCell struct {
	epoch  uint32
	sum    uint16
	within uint8
}

// reset invalidates every cell for the next query.
func (t *boundTable) reset() {
	t.epoch++
	if t.epoch == 0 { // stamp wrap: clear once every 2^32 queries
		clear(t.cell)
		t.epoch = 1
	}
}

// scatter adds one keyword's posting list, given as its IDs (four
// little-endian bytes each) and its distances, to the table. The list
// ascends strictly — it was built so, or OpenPlaces/OpenNodes checked it —
// so no entry counts one keyword twice.
func (t *boundTable) scatter(ids, w []byte) {
	if len(w) == 0 {
		return
	}
	if need := int(le.Uint32(ids[len(ids)-4:])) + 1; need > len(t.cell) {
		// New cells carry epoch 0, which no live table has: stale.
		t.cell = append(t.cell, make([]boundCell, need-len(t.cell))...)
	}
	for i, d := range w {
		c := &t.cell[le.Uint32(ids[4*i:])]
		if c.epoch != t.epoch {
			*c = boundCell{epoch: t.epoch}
		}
		c.within++
		c.sum += uint16(d)
	}
}

// fileView is what one query needs of one inverted file: the columns of
// its keywords that the file keeps as columns, borrowed, and a table of
// the others' lists.
type fileView struct {
	boundTable
	file *File    // whose columns cols are; nil while none is borrowed
	cols [][]byte // one per keyword kept as a column, in no order
}

// reset drops what an earlier query left: the borrowed columns, and by an
// epoch bump every table cell.
func (v *fileView) reset() {
	v.boundTable.reset()
	v.dropColumns()
}

// dropColumns forgets the borrowed columns, so that a pooled view does
// not keep an index alive.
func (v *fileView) dropColumns() {
	v.file = nil
	clear(v.cols)
	v.cols = v.cols[:0]
}

// load adds the keyword term of f: its column, borrowed, or its list,
// scattered.
func (v *fileView) load(f *File, term uint32) {
	r := f.term(term)
	if r.col != nil {
		v.file = f
		v.cols = append(v.cols, r.col)
		return
	}
	v.scatter(r.ids, r.w)
}

// bound returns 1 + Σ dg over the keywords within α of id + absent for
// each of the m keywords that is not. Every addend of the lemma is a
// small non-negative integer — a table cell's sum, a nibble less one — so
// summing them as integers and converting once gives the same float64,
// bit for bit, as adding them one keyword at a time, whichever keyword
// came from a column and whichever from a list.
func (v *fileView) bound(id uint32, m, absent int) float64 {
	sum, within := 0, 0
	if int(id) < len(v.cell) {
		if c := v.cell[id]; c.epoch == v.epoch {
			sum, within = int(c.sum), int(c.within)
		}
	}
	if len(v.cols) > 0 {
		if o := v.file.ordinal(id); o != noOrd {
			at, shift := o>>1, (o&1)<<2
			for _, col := range v.cols {
				if d := col[at] >> shift & 15; d != 0 {
					sum += int(d) - 1
					within++
				}
			}
		}
	}
	return float64(1 + sum + (m-within)*absent)
}

// QueryView holds what the bounds of one query read: per inverted file a
// fileView. Obtain one from LoadQuery and return it with Release when the
// query finishes; a released view must not be used again.
type QueryView struct {
	alpha int
	m     int
	place fileView
	node  fileView

	owner *Index // pool to return to; nil after Release
}

// LoadQuery borrows the columns of the query keywords and scatters the
// posting lists of those that have none. A term listed
// twice counts as two keywords. Views come from a pool on the Index, so
// the warm path reuses the tables.
func (ix *Index) LoadQuery(terms []uint32) (*QueryView, error) {
	qv, _ := ix.qvPool.Get().(*QueryView)
	if qv == nil {
		qv = &QueryView{}
	}
	if err := qv.fill(ix, terms); err != nil {
		qv.Release()
		return nil, err
	}
	return qv, nil
}

// fill points the view at a new keyword set and at ix, the pool it
// returns to: a reset per file drops whatever an earlier query left
// there, then each keyword is loaded from both files.
func (qv *QueryView) fill(ix *Index, terms []uint32) error {
	qv.owner = ix
	if len(terms) > maxTerms {
		return fmt.Errorf("alpha: %d query terms, at most %d", len(terms), maxTerms)
	}
	qv.alpha = ix.Alpha
	qv.m = len(terms)
	qv.place.reset()
	qv.node.reset()
	for _, t := range terms {
		qv.place.load(ix.PlaceIdx, t)
		qv.node.load(ix.NodeIdx, t)
	}
	return nil
}

// Release returns the view to its index's pool, without the columns it
// borrowed. Callers must drop every reference: the tables are reused by
// later LoadQuery calls. Safe to call more than once; only the first has
// effect.
func (qv *QueryView) Release() {
	if qv == nil || qv.owner == nil {
		return
	}
	ix := qv.owner
	qv.owner = nil
	qv.place.dropColumns()
	qv.node.dropColumns()
	ix.qvPool.Put(qv)
}

// PlaceBound returns LαB(Tp) (Lemma 2): 1 + Σ dg over keywords found in
// WN(p) + (α+1) for each keyword absent from it. It panics on a
// released view, whose tables another query may be refilling.
func (qv *QueryView) PlaceBound(p uint32) float64 {
	if qv.owner == nil {
		panic("alpha: PlaceBound on a released QueryView")
	}
	return qv.place.bound(p, qv.m, qv.alpha+1)
}

// NodeBound returns LαB(TN) (Lemma 4) for R-tree node nodeID. It panics
// on a released view.
func (qv *QueryView) NodeBound(nodeID uint32) float64 {
	if qv.owner == nil {
		panic("alpha: NodeBound on a released QueryView")
	}
	return qv.node.bound(nodeID, qv.m, qv.alpha+1)
}
