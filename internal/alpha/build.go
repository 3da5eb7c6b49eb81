package alpha

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ksp/internal/invindex"
	"ksp/internal/rdf"
	"ksp/internal/rtree"
)

// MaxRadius is the largest α an Index can be built for: a posting stores
// its distance in one byte.
const MaxRadius = 255

// CheckRadius reports whether r is a radius Build accepts. Beyond
// MaxRadius distances would be stored modulo 256 and the Lemma 2/4 bounds
// could exceed the true looseness; a negative radius is an unbounded BFS
// with the same defect.
func CheckRadius(r int) error {
	if r < 0 || r > MaxRadius {
		return fmt.Errorf("alpha: radius %d is outside [0, %d]: distances are stored in one byte", r, MaxRadius)
	}
	return nil
}

// Build computes the neighbourhoods of all places of g and of all nodes
// of tree. Construction dominates preprocessing (Table 5 of the paper:
// ≈ 20 hours for DBpedia at α = 3), so it runs on all CPUs and touches no
// hash table; see BuildFor for the three steps. The result is
// deterministic: it does not depend on the worker count or on scheduling.
func Build(g *rdf.Graph, tree *rtree.RTree, alphaRadius int, dir rdf.Direction) *Index {
	return BuildFor(g, tree, alphaRadius, dir, g.Places())
}

// BuildFor is Build restricted to the given place subset, in any order:
// only those places get a BFS and only their neighbourhoods feed the node
// aggregation, so tree must contain exactly them. It panics on a radius
// CheckRadius rejects.
//
//  1. Per place, a depth-α BFS offers every term of every vertex it
//     reaches to a minTable over the vocabulary — one per worker, dropped
//     by an epoch bump — and the place's neighbourhood leaves it as one
//     compact (term, distance) run. BFS reaches vertices in non-decreasing
//     distance, so the first offer of a term is already its minimum (the
//     table compares anyway): the run is WN(p) of Definition 5. Runs are
//     stored by place, so which worker made one does not matter.
//  2. The place inverted file is a counting sort of the runs: count per
//     term, prefix-sum, then fill walking the places in ascending vertex
//     ID, which writes every posting list strictly ascending into one
//     array of exact size. Nothing is appended, sorted or de-duplicated.
//  3. The node inverted file is derived from the place file term by term
//     (deriveLists): WN(N) is by Definition 6 the term-wise minimum over
//     the places below N, so term t's node list is its place list folded
//     up the tree. Index.Restrict shares this step.
func BuildFor(g *rdf.Graph, tree *rtree.RTree, alphaRadius int, dir rdf.Direction, places []uint32) *Index {
	if err := CheckRadius(alphaRadius); err != nil {
		panic(err)
	}
	place := placeLists(g, alphaRadius, dir, places)
	lend := func() listReader {
		return func(term uint32) ([]invindex.Posting, error) { return place[term], nil }
	}
	_, node, err := deriveLists(len(place), lend, newTreeShape(tree), false)
	if err != nil {
		panic(err) // lend cannot fail
	}
	ix, err := newIndex(alphaRadius, dir, place, node)
	if err != nil {
		panic(err) // both files are ascending by construction
	}
	return ix
}

// Restrict returns the index of the places tree holds, all of which must
// be places of ix: each term's place list is ix's filtered by membership,
// which keeps it ascending, and the node file is derived from the result
// over tree exactly as BuildFor derives it. No BFS runs — WN(p) does not
// depend on which other places are indexed with p. The lists are read
// through invindex.Index, so ix may be disk-resident; a read error or a
// damaged list is returned.
func (ix *Index) Restrict(tree *rtree.RTree) (*Index, error) {
	read := func() listReader {
		var buf []invindex.Posting
		return func(term uint32) ([]invindex.Posting, error) {
			var err error
			buf, err = ix.PlaceIdx.Postings(term, buf[:0])
			return buf, err
		}
	}
	place, node, err := deriveLists(ix.PlaceIdx.NumTerms(), read, newTreeShape(tree), true)
	if err != nil {
		return nil, err
	}
	return newIndex(ix.Alpha, ix.Dir, place, node)
}

// newIndex wraps finished lists; invindex checks that they ascend.
func newIndex(alphaRadius int, dir rdf.Direction, place, node [][]invindex.Posting) (*Index, error) {
	placeIdx, err := invindex.FromSorted(place)
	if err != nil {
		return nil, fmt.Errorf("alpha: place file: %w", err)
	}
	nodeIdx, err := invindex.FromSorted(node)
	if err != nil {
		return nil, fmt.Errorf("alpha: node file: %w", err)
	}
	return &Index{Alpha: alphaRadius, Dir: dir, PlaceIdx: placeIdx, NodeIdx: nodeIdx}, nil
}

// minTable keeps the smallest distance offered per key of a dense key
// space (term IDs for a place's BFS, node IDs for a term's fold) and
// remembers which keys were offered. A cell whose epoch is not the
// table's is stale, so reset costs one increment instead of a clear, as
// with rdf.BFSState.visited and boundTable.
type minTable struct {
	cell    []minCell
	touched []uint32 // keys offered since reset, in first-offer order
	epoch   uint32
}

type minCell struct {
	epoch uint32
	min   uint8
}

func newMinTable(keys int) *minTable {
	return &minTable{cell: make([]minCell, keys)}
}

// reset forgets every key.
func (m *minTable) reset() {
	m.touched = m.touched[:0]
	m.epoch++
	if m.epoch == 0 { // stamp wrap: clear once every 2^32 resets
		clear(m.cell)
		m.epoch = 1
	}
}

// offer lowers key's minimum to d and reports whether that changed it.
func (m *minTable) offer(key uint32, d uint8) bool {
	c := &m.cell[key]
	if c.epoch != m.epoch {
		*c = minCell{epoch: m.epoch, min: d}
		m.touched = append(m.touched, key)
		return true
	}
	if d < c.min {
		c.min = d
		return true
	}
	return false
}

// appendSorted appends the offered keys and their minima to dst in
// ascending key order. Few keys are sorted; once a fair share of the key
// space was offered it is cheaper to walk the cells in order instead.
func (m *minTable) appendSorted(dst []invindex.Posting) []invindex.Posting {
	if len(m.touched) < len(m.cell)/8 {
		slices.Sort(m.touched)
		for _, k := range m.touched {
			dst = append(dst, invindex.Posting{ID: k, Weight: m.cell[k].min})
		}
		return dst
	}
	for k, c := range m.cell {
		if c.epoch == m.epoch {
			dst = append(dst, invindex.Posting{ID: uint32(k), Weight: c.min})
		}
	}
	return dst
}

// termDist is one entry of a place's neighbourhood run.
type termDist struct {
	term uint32
	dist uint8
}

// placeLists runs steps 1 and 2 of BuildFor and returns the place
// posting list of every term of the vocabulary.
func placeLists(g *rdf.Graph, alphaRadius int, dir rdf.Direction, places []uint32) [][]invindex.Posting {
	numTerms := g.Vocab.Len()
	// PartitionSpatial hands its tiles over in STR order; the fill below
	// needs ascending IDs, each once.
	order := slices.Clone(places)
	slices.Sort(order)
	order = slices.Compact(order)

	runs := make([][]termDist, len(order))
	parallel(len(order), 1, func() func(lo, hi int) {
		bfs := rdf.NewBFSState(g)
		wn := newMinTable(numTerms)
		visit := func(v uint32, dist int) bool {
			for _, t := range g.Doc(v) {
				wn.offer(t, uint8(dist))
			}
			return true
		}
		return func(lo, hi int) {
			for i := lo; i < hi; i++ {
				wn.reset()
				bfs.Run(order[i], dir, alphaRadius, visit)
				run := make([]termDist, len(wn.touched))
				for j, t := range wn.touched {
					run[j] = termDist{term: t, dist: wn.cell[t].min}
				}
				runs[i] = run
			}
		}
	})

	// Counting sort, one block of per consecutive places per worker:
	// next[b][t] first counts block b's postings of term t and then, after
	// a prefix sum over (t, b), is where block b writes its next one. Places
	// ascend within a block and from block to block, so every list does.
	per := max(1, (len(order)+runtime.GOMAXPROCS(0)-1)/runtime.GOMAXPROCS(0))
	blocks := (len(order) + per - 1) / per
	eachBlock := func(do func(b, i int)) {
		parallel(len(order), per, func() func(lo, hi int) {
			return func(lo, hi int) {
				for i := lo; i < hi; i++ {
					do(lo/per, i)
				}
			}
		})
	}
	next := make([][]int, blocks)
	for b := range next {
		next[b] = make([]int, numTerms)
	}
	eachBlock(func(b, i int) {
		for _, e := range runs[i] {
			next[b][e.term]++
		}
	})
	off := make([]int, numTerms+1)
	for t := 0; t < numTerms; t++ {
		n := off[t]
		for b := range next {
			n, next[b][t] = n+next[b][t], n
		}
		off[t+1] = n
	}
	post := make([]invindex.Posting, off[numTerms])
	eachBlock(func(b, i int) {
		for _, e := range runs[i] {
			post[next[b][e.term]] = invindex.Posting{ID: order[i], Weight: e.dist}
			next[b][e.term]++
		}
	})
	return cut(make([][]invindex.Posting, numTerms), post, off[1:])
}

// cut makes lists[i] the part of post that ends at ends[i] and begins
// where the one before ended, with no capacity to spare; an empty list
// stays nil.
func cut(lists [][]invindex.Posting, post []invindex.Posting, ends []int) [][]invindex.Posting {
	lo := 0
	for i, hi := range ends {
		if hi > lo {
			lists[i] = post[lo:hi:hi]
		}
		lo = hi
	}
	return lists
}

// noNode marks the root's parent, an unused node ID and a vertex that is
// not a place of the tree.
const noNode = ^uint32(0)

// treeShape is what folding place lists into node lists needs of an
// R-tree: the leaf holding each place and every node's parent, as arrays
// (a few hundred nodes, read by every worker, written by none).
type treeShape struct {
	leafOf []uint32 // by place vertex ID
	parent []uint32 // by node ID
}

func newTreeShape(tree *rtree.RTree) *treeShape {
	sh := &treeShape{}
	var walk func(n *rtree.Node, parent uint32)
	walk = func(n *rtree.Node, parent uint32) {
		sh.parent = growSet(sh.parent, n.ID, parent)
		for _, it := range n.Items {
			sh.leafOf = growSet(sh.leafOf, it.ID, n.ID)
		}
		for _, ch := range n.Children {
			walk(ch, n.ID)
		}
	}
	walk(tree.Root(), noNode)
	return sh
}

// growSet sets s[i] = v, first extending s with noNode up to index i.
func growSet(s []uint32, i, v uint32) []uint32 {
	for int(i) >= len(s) {
		s = append(s, noNode)
	}
	s[i] = v
	return s
}

// fold offers every posting of one term's place list whose place the tree
// holds to its leaf and up the parent chain, stopping where a node already
// has a distance as small (its ancestors then have one too). Afterwards
// agg holds the term's WN(N) entry for every node N with one. When keep
// is set the postings folded are appended to kept, which is returned.
func (sh *treeShape) fold(agg *minTable, pl, kept []invindex.Posting, keep bool) []invindex.Posting {
	agg.reset()
	for _, p := range pl {
		if int(p.ID) >= len(sh.leafOf) || sh.leafOf[p.ID] == noNode {
			continue
		}
		if keep {
			kept = append(kept, p)
		}
		for nd := sh.leafOf[p.ID]; nd != noNode && agg.offer(nd, p.Weight); nd = sh.parent[nd] {
		}
	}
	return kept
}

// listReader lends one term's place list, valid until the reader's next
// call. deriveLists takes a reader per worker, so one may keep a buffer.
type listReader func(term uint32) ([]invindex.Posting, error)

// termChunk is how many consecutive terms a worker of deriveLists takes
// at a time. List lengths are skewed, so the term range is dealt out in
// pieces instead of cut once per worker; each piece's lists share one
// allocation, which the runtime rounds up to whole pages, so the pieces
// are not made smaller than balance needs.
const termChunk = 256

// chunkLists collects the lists of one chunk of terms, one after the
// other, in a buffer its worker reuses.
type chunkLists struct {
	post []invindex.Posting
	ends []int
}

func (c *chunkLists) reset() { c.post, c.ends = c.post[:0], c.ends[:0] }

// endList closes the list that the postings appended since the last call
// make up.
func (c *chunkLists) endList() { c.ends = append(c.ends, len(c.post)) }

// cutInto copies the chunk into one allocation of exact size and makes
// lists, which has one slot per endList call, its sub-slices.
func (c *chunkLists) cutInto(lists [][]invindex.Posting) {
	cut(lists, append(make([]invindex.Posting, 0, len(c.post)), c.post...), c.ends)
}

// deriveLists reads every term's place list through a reader and returns
// the node lists over sh (step 3 of BuildFor) and, when keepPlaces is
// set, the place lists restricted to the places of sh. Terms are
// independent and each needs O(nodes) scratch, so the term range is dealt
// out to the workers in chunks; the lists of a chunk — node IDs ascending
// — share one allocation of exact size. The first read error ends it.
func deriveLists(numTerms int, newReader func() listReader, sh *treeShape, keepPlaces bool) (place, node [][]invindex.Posting, err error) {
	if keepPlaces {
		place = make([][]invindex.Posting, numTerms)
	}
	node = make([][]invindex.Posting, numTerms)
	var failed atomic.Pointer[error]
	parallel(numTerms, termChunk, func() func(lo, hi int) {
		read := newReader()
		agg := newMinTable(len(sh.parent))
		var places, nodes chunkLists
		return func(lo, hi int) {
			places.reset()
			nodes.reset()
			for t := lo; t < hi; t++ {
				if failed.Load() != nil {
					return
				}
				pl, err := read(uint32(t))
				if err != nil {
					wrapped := fmt.Errorf("alpha: place postings of term %d: %w", t, err)
					failed.CompareAndSwap(nil, &wrapped)
					return
				}
				places.post = sh.fold(agg, pl, places.post, keepPlaces)
				places.endList()
				nodes.post = agg.appendSorted(nodes.post)
				nodes.endList()
			}
			if keepPlaces {
				places.cutInto(place[lo:hi])
			}
			nodes.cutInto(node[lo:hi])
		}
	})
	if e := failed.Load(); e != nil {
		return nil, nil, *e
	}
	return place, node, nil
}

// parallel covers [0, n) with calls work(lo, hi) on consecutive pieces of
// chunk (the last may be shorter), made from up to GOMAXPROCS goroutines.
// Each goroutine gets its own work function from newWorker and so its own
// scratch.
func parallel(n, chunk int, newWorker func() func(lo, hi int)) {
	var next atomic.Int64
	run := func() {
		work := newWorker()
		for {
			lo := int(next.Add(int64(chunk))) - chunk
			if lo >= n {
				return
			}
			work(lo, min(lo+chunk, n))
		}
	}
	workers := min(runtime.GOMAXPROCS(0), (n+chunk-1)/chunk)
	if workers <= 1 {
		if n > 0 {
			run()
		}
		return
	}
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run()
		}()
	}
	wg.Wait()
}
