// Package alpha implements the α-radius word neighbourhoods of Section 5
// of the paper and the bounds derived from them (Lemmas 2-5).
//
// WN(p) of a place p holds, for every term reachable within graph distance
// α from p, the shortest such distance. WN(N) of an R-tree node N is the
// term-wise minimum over the places below N. Both are stored as inverted
// files keyed by term, so that a query only loads the posting lists of its
// keywords (the paper's Section 5 "Storage" paragraph); a QueryView
// scatters them into a dense per-query table, from which the α-bounds on
// looseness for places (Lemma 2) and nodes (Lemma 4) are one read each.
package alpha

import (
	"fmt"
	"sync"

	"ksp/internal/invindex"
	"ksp/internal/rdf"
)

// Index holds the α-radius word neighbourhoods of all places and R-tree
// nodes, stored as inverted files.
type Index struct {
	Alpha int
	Dir   rdf.Direction

	// PlaceIdx: term -> postings of (place vertex ID, dg(p,t)).
	PlaceIdx invindex.Index
	// NodeIdx: term -> postings of (R-tree node ID, dg(N,t)).
	NodeIdx invindex.Index

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

// boundTable is the keyword-relevant slice of one inverted file,
// scattered into a dense array indexed by entry ID (place vertex ID or
// R-tree node ID), so that a bound is one indexed read instead of a
// binary search per keyword. A cell whose epoch is not the table's is
// stale, which lets a recycled table skip the O(|V|) clear (as core's
// denseMQ and seenSet do); an ID beyond the table was never scattered,
// so every keyword is absent.
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

// scatter adds one keyword's posting list to the table. Both index
// representations produce strictly ID-ascending lists; anything else can
// only come out of a damaged index file and would count one keyword twice
// for an entry, lifting its bound above Lemma 2's value, so it is an
// error. The check runs before any cell is written.
func (t *boundTable) scatter(pl []invindex.Posting) error {
	if len(pl) == 0 {
		return nil
	}
	for i := 1; i < len(pl); i++ {
		if pl[i].ID <= pl[i-1].ID {
			return fmt.Errorf("entry %d follows entry %d", pl[i].ID, pl[i-1].ID)
		}
	}
	if need := int(pl[len(pl)-1].ID) + 1; need > len(t.cell) {
		// New cells carry epoch 0, which no live table has: stale.
		t.cell = append(t.cell, make([]boundCell, need-len(t.cell))...)
	}
	for _, p := range pl {
		c := &t.cell[p.ID]
		if c.epoch != t.epoch {
			*c = boundCell{epoch: t.epoch}
		}
		c.within++
		c.sum += uint16(p.Weight)
	}
	return nil
}

// bound returns 1 + Σ dg over the keywords within α of id + absent for
// each of the m keywords that is not. Every addend of the lemma is a
// small non-negative integer, so summing them as integers and converting
// once gives the same float64, bit for bit, as adding them one keyword at
// a time.
func (t *boundTable) bound(id uint32, m, absent int) float64 {
	if int(id) < len(t.cell) {
		if c := t.cell[id]; c.epoch == t.epoch {
			return float64(1 + int(c.sum) + (m-int(c.within))*absent)
		}
	}
	return float64(1 + m*absent)
}

// QueryView holds the keyword-relevant slice of the neighbourhoods for
// one query as two dense tables (see boundTable). Obtain one from
// LoadQuery and return it with Release when the query finishes; a
// released view must not be used again.
type QueryView struct {
	alpha int
	m     int
	place boundTable
	node  boundTable

	owner *Index             // pool to return to; nil after Release
	buf   []invindex.Posting // pooled read scratch for LoadQuery
}

// LoadQuery fetches the posting lists of the query keywords and scatters
// them into the view's tables. A term listed twice counts as two
// keywords. Views come from a pool on the Index, so the warm path reuses
// the tables.
func (ix *Index) LoadQuery(terms []uint32) (*QueryView, error) {
	qv, _ := ix.qvPool.Get().(*QueryView)
	if qv == nil {
		qv = &QueryView{} //ksplint:ignore allocbound -- pool-miss refill; qvPool amortizes it across queries
	}
	qv.owner = ix
	if err := qv.fill(ix, terms); err != nil {
		qv.Release()
		return nil, err
	}
	return qv, nil
}

// fill points the view at a new keyword set: one epoch bump per table
// drops whatever an earlier query left there, then each keyword's two
// posting lists are read and scattered.
func (qv *QueryView) fill(ix *Index, terms []uint32) error {
	if len(terms) > maxTerms {
		return fmt.Errorf("alpha: %d query terms, at most %d", len(terms), maxTerms)
	}
	qv.alpha = ix.Alpha
	qv.m = len(terms)
	qv.place.reset()
	qv.node.reset()
	for _, t := range terms {
		if err := qv.scatterFrom(ix.PlaceIdx, &qv.place, t); err != nil {
			return fmt.Errorf("alpha: place postings of term %d: %w", t, err)
		}
		if err := qv.scatterFrom(ix.NodeIdx, &qv.node, t); err != nil {
			return fmt.Errorf("alpha: node postings of term %d: %w", t, err)
		}
	}
	return nil
}

// scatterFrom reads term's posting list from src through the view's
// scratch and scatters it into tab.
func (qv *QueryView) scatterFrom(src invindex.Index, tab *boundTable, term uint32) error {
	var err error
	if qv.buf, err = src.Postings(term, qv.buf[:0]); err != nil {
		return err
	}
	return tab.scatter(qv.buf)
}

// Release returns the view to its index's pool. Callers must drop every
// reference: the tables are reused by later LoadQuery calls. Safe to
// call more than once; only the first has effect.
func (qv *QueryView) Release() {
	if qv == nil || qv.owner == nil {
		return
	}
	ix := qv.owner
	qv.owner = nil
	ix.qvPool.Put(qv)
}

// PlaceBound returns LαB(Tp) (Lemma 2): 1 + Σ dg over keywords found in
// WN(p) + (α+1) for each keyword absent from it.
func (qv *QueryView) PlaceBound(p uint32) float64 {
	return qv.place.bound(p, qv.m, qv.alpha+1)
}

// NodeBound returns LαB(TN) (Lemma 4) for R-tree node nodeID.
func (qv *QueryView) NodeBound(nodeID uint32) float64 {
	return qv.node.bound(nodeID, qv.m, qv.alpha+1)
}
