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
	"runtime"
	"sync"
	"sync/atomic"

	"ksp/internal/invindex"
	"ksp/internal/rdf"
	"ksp/internal/rtree"
)

// placeWN computes the α-radius word neighbourhood of one place
// (Definition 5): term -> min graph distance within radius α.
func placeWN(g *rdf.Graph, bfs *rdf.BFSState, p uint32, dir rdf.Direction, alphaRadius int) map[uint32]uint8 {
	wn := make(map[uint32]uint8)
	bfs.Run(p, dir, alphaRadius, func(v uint32, dist int) bool {
		for _, t := range g.Doc(v) {
			if old, ok := wn[t]; !ok || uint8(dist) < old {
				wn[t] = uint8(dist)
			}
		}
		return true
	})
	return wn
}

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

// Build computes the neighbourhoods by a depth-α BFS per place, then
// aggregates them bottom-up over the R-tree (Definition 6). The per-place
// searches are independent and run on all CPUs — construction dominates
// preprocessing (Table 5 of the paper: ≈20 hours for DBpedia at α=3), so
// this is the one build step worth parallelizing. The result is
// deterministic: posting lists are sorted during index finalization.
func Build(g *rdf.Graph, tree *rtree.RTree, alphaRadius int, dir rdf.Direction) *Index {
	return BuildFor(g, tree, alphaRadius, dir, g.Places())
}

// BuildFor is Build restricted to the given place subset: only those
// places get a BFS and only their neighbourhoods feed the node
// aggregation, so tree must contain exactly them. This is the spatial
// sharding construction path — each shard's engine rebuilds its α index
// over its own partition, and the total BFS work across all shards
// equals one full Build.
func BuildFor(g *rdf.Graph, tree *rtree.RTree, alphaRadius int, dir rdf.Direction, places []uint32) *Index {
	placeB := invindex.NewBuilder()
	nodeB := invindex.NewBuilder()
	placeB.Reserve(g.Vocab.Len())
	nodeB.Reserve(g.Vocab.Len())

	// Per-place neighbourhoods, one worker per CPU, each with its own
	// BFS scratch.
	wns := make([]map[uint32]uint8, len(places))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(places) {
		workers = len(places)
	}
	if workers > 1 {
		var next int64 = -1
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				bfs := rdf.NewBFSState(g)
				for {
					i := int(atomic.AddInt64(&next, 1))
					if i >= len(places) {
						return
					}
					wns[i] = placeWN(g, bfs, places[i], dir, alphaRadius)
				}
			}()
		}
		wg.Wait()
	} else if len(places) > 0 {
		bfs := rdf.NewBFSState(g)
		for i, p := range places {
			wns[i] = placeWN(g, bfs, p, dir, alphaRadius)
		}
	}
	placeWNByID := make(map[uint32]map[uint32]uint8, len(places))
	for i, p := range places {
		placeWNByID[p] = wns[i]
		for t, d := range wns[i] {
			placeB.Add(t, p, d)
		}
	}

	// Bottom-up aggregation over the R-tree.
	var walk func(n *rtree.Node) map[uint32]uint8
	walk = func(n *rtree.Node) map[uint32]uint8 {
		wn := make(map[uint32]uint8)
		merge := func(src map[uint32]uint8) {
			for t, d := range src {
				if old, ok := wn[t]; !ok || d < old {
					wn[t] = d
				}
			}
		}
		if n.Leaf {
			for _, it := range n.Items {
				merge(placeWNByID[it.ID])
			}
		} else {
			for _, ch := range n.Children {
				merge(walk(ch))
			}
		}
		for t, d := range wn {
			nodeB.Add(t, n.ID, d)
		}
		return wn
	}
	if tree.Len() > 0 {
		walk(tree.Root())
	}

	return &Index{
		Alpha:    alphaRadius,
		Dir:      dir,
		PlaceIdx: placeB.Build(),
		NodeIdx:  nodeB.Build(),
	}
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
