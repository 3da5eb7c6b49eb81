package alpha

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
//     compact run of terms grouped by distance (wnRun). BFS reaches
//     vertices in non-decreasing distance, so the first offer of a term is
//     already its minimum, and the terms leave the table in the order of
//     their distances (newRun panics should that ever not hold): the run
//     is WN(p) of Definition 5. Runs are stored by place, so which worker
//     made one does not matter.
//  2. The place inverted file is a counting sort of the runs: count per
//     term, which is also where each term's form is decided (File),
//     prefix-sum over the terms that stay lists, then fill walking the
//     places in ascending vertex ID, which sets a nibble of the term's
//     column or writes the next posting of its strictly ascending list,
//     either into the file's image, allocated at its final size. Nothing
//     is appended, sorted, de-duplicated or packed afterwards.
//  3. The node inverted file is derived from the place file term by term
//     (derive): WN(N) is by Definition 6 the term-wise minimum over the
//     places below N, so term t's node entries are its place entries
//     folded up the tree. Index.Restrict shares this step.
func BuildFor(g *rdf.Graph, tree *rtree.RTree, alphaRadius int, dir rdf.Direction, places []uint32) *Index {
	if err := CheckRadius(alphaRadius); err != nil {
		panic(err)
	}
	place := placeFile(g, alphaRadius, dir, places)
	lend := func() termReader {
		return func(term uint32) (termRep, error) { return place.term(term), nil }
	}
	_, node, err := derive(place.NumTerms(), alphaRadius, lend, &place.universe, newTreeShape(tree, &place.universe), false)
	if err != nil {
		panic(err) // lend cannot fail
	}
	return &Index{Alpha: alphaRadius, Dir: dir, PlaceIdx: place, NodeIdx: node}
}

// Restrict returns the index of the places tree holds, all of which must
// be places of ix. A term's entries are ix's at those places — a column of
// ix is gathered at the tile's ordinals, a list filtered by membership,
// which keeps it ascending; neither walks more than the tile or the list
// — and the node file is derived from the result over tree exactly as
// BuildFor derives it. No BFS runs: WN(p) does not depend on which other
// places are indexed with p. ix may be served from a mapping: its place
// file is only read.
func (ix *Index) Restrict(tree *rtree.RTree) *Index {
	u := placeUniverse(sortedSet(tree.Arrays().IDs))
	from := ix.PlaceIdx
	// at[o] is where ix keeps the tile's o-th place, and one entry more
	// evens the count out: a gathered byte is written whole.
	at := make([]uint32, 2*u.stride())
	for o := range at {
		at[o] = noOrd
		if o < u.n {
			at[o] = from.ordinal(u.id(o))
		}
	}
	// gathered returns the nibble ix keeps at a, empty where it keeps none.
	gathered := func(src []byte, a uint32) uint8 {
		if a == noOrd {
			return 0
		}
		return nibble(src, a)
	}
	read := func() termReader {
		var ids, w []byte
		col := make([]byte, u.stride())
		return func(term uint32) (termRep, error) {
			r := from.term(term)
			if r.col != nil {
				for i := range col {
					col[i] = gathered(r.col, at[2*i]) | gathered(r.col, at[2*i+1])<<4
				}
				return termRep{col: col}, nil
			}
			ids, w = ids[:0], w[:0]
			for i, d := range r.w {
				if id := le.Uint32(r.ids[4*i:]); u.ordinal(id) != noOrd {
					ids, w = le.AppendUint32(ids, id), append(w, d)
				}
			}
			return termRep{ids: ids, w: w}, nil
		}
	}
	place, node, err := derive(from.NumTerms(), ix.Alpha, read, &u, newTreeShape(tree, &u), true)
	if err != nil {
		panic(err) // read cannot fail
	}
	return &Index{Alpha: ix.Alpha, Dir: ix.Dir, PlaceIdx: place, NodeIdx: node}
}

// sortedSet returns ids ascending, each once, leaving ids as it is:
// PartitionSpatial hands its tiles over, and a tree holds its places, in
// STR order.
func sortedSet(ids []uint32) []uint32 {
	ids = slices.Clone(ids)
	slices.Sort(ids)
	return slices.Compact(ids)
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

// appendSorted appends the offered keys to ids, four little-endian bytes
// each, and their minima to w, in ascending key order. Few keys are
// sorted; once a fair share of the key space was offered it is cheaper to
// walk the cells in order instead.
func (m *minTable) appendSorted(ids, w []byte) ([]byte, []byte) {
	if len(m.touched) < len(m.cell)/8 {
		slices.Sort(m.touched)
		for _, k := range m.touched {
			ids, w = le.AppendUint32(ids, k), append(w, m.cell[k].min)
		}
		return ids, w
	}
	for k, c := range m.cell {
		if c.epoch == m.epoch {
			ids, w = le.AppendUint32(ids, uint32(k)), append(w, c.min)
		}
	}
	return ids, w
}

// wnRun is one place's neighbourhood in four bytes an entry: its terms,
// those at distance 0 first, then those at 1 and so on, after radius+1
// words that say where in the terms each distance ends.
type wnRun []uint32

// newRun takes the neighbourhood wn holds out of it, into arena. BFS
// reaches vertices in non-decreasing distance, so the terms were first
// offered — and stand in wn.touched — grouped by their minimum already:
// one pass copies them and notes where each distance ends.
func newRun(wn *minTable, radius int, arena *runArena) wnRun {
	run := arena.alloc(radius + 1 + len(wn.touched))
	ends, terms := run[:radius+1], run[radius+1:]
	d := 0
	for j, t := range wn.touched {
		m := int(wn.cell[t].min)
		if m < d {
			panic(fmt.Sprintf("alpha: term %d offered at distance %d after one at %d: the BFS left level order", t, m, d))
		}
		for ; d < m; d++ {
			ends[d] = uint32(j)
		}
		terms[j] = t
	}
	for ; d <= radius; d++ {
		ends[d] = uint32(len(terms))
	}
	return run
}

// terms returns the terms of the run, whatever their distance.
func (r wnRun) terms(radius int) []uint32 { return r[radius+1:] }

// each calls do for every entry of the run.
func (r wnRun) each(radius int, do func(term uint32, dist uint8)) {
	terms, lo := r[radius+1:], uint32(0)
	for d, hi := range r[:radius+1] {
		for _, t := range terms[lo:hi] {
			do(t, uint8(d))
		}
		lo = hi
	}
}

// runArena hands out runs from blocks a worker fills one after the other:
// a few allocations a worker instead of one a place.
type runArena []uint32

// arenaBlock is how many words a runArena block holds, unless one run
// needs more.
const arenaBlock = 1 << 16

// alloc returns n zeroed words.
func (a *runArena) alloc(n int) wnRun {
	if cap(*a)-len(*a) < n {
		*a = make([]uint32, 0, max(n, arenaBlock))
	}
	lo, hi := len(*a), len(*a)+n
	*a = (*a)[:hi]
	return wnRun((*a)[lo:hi:hi])
}

// placeFile runs steps 1 and 2 of BuildFor and returns the place file
// over the whole vocabulary.
func placeFile(g *rdf.Graph, alphaRadius int, dir rdf.Direction, places []uint32) *File {
	numTerms := g.Vocab.Len()
	// The fill below needs ascending IDs, each once; a place's position in
	// that order is its ordinal in the file.
	order := sortedSet(places)
	u := placeUniverse(order)

	runs := make([]wnRun, len(order))
	parallel(len(order), 1, func() func(lo, hi int) {
		bfs := rdf.NewBFSState(g)
		wn := newMinTable(numTerms)
		var arena runArena
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
				runs[i] = newRun(wn, alphaRadius, &arena)
			}
		}
	})

	// Counting sort, one block of per consecutive places per worker:
	// next[b][t] first counts block b's entries of term t and then, for a
	// term that stays a list, after a prefix sum over (t, b), is where
	// block b writes its next posting. Places ascend within a block and
	// from block to block, so every list does.
	per := blockLen(len(order), runtime.GOMAXPROCS(0))
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
		for _, t := range runs[i].terms(alphaRadius) {
			next[b][t]++
		}
	})
	// Every term's length is known here, and with it its form: the fill
	// writes into the image, which is allocated at its final size.
	count := func(t int) (n int) {
		for b := range next {
			n += next[b][t]
		}
		return n
	}
	columns, listed := 0, 0
	for t := 0; t < numTerms; t++ {
		if n := count(t); u.columnFor(n, alphaRadius) {
			columns++
		} else {
			listed += n
		}
	}
	f := newFile(&u, numTerms, columns, listed)
	// slot[t] is where term t's column begins in the column arena, -1 for
	// a list: the fill looks a term up once per entry, and this table
	// stays in cache.
	stride := f.stride()
	slot := make([]int, numTerms)
	for t, col, at := 0, 0, 0; t < numTerms; t++ {
		if f.columnFor(count(t), alphaRadius) {
			slot[t] = col * stride
			col++
		} else {
			slot[t] = -1
			for b := range next {
				at, next[b][t] = at+next[b][t], at
			}
		}
		f.setTerm(t+1, col, at)
	}
	eachBlock(func(b, i int) {
		runs[i].each(alphaRadius, func(t uint32, d uint8) {
			if at := slot[t]; at >= 0 {
				setNibble(f.cols[at:], uint32(i), d+1)
				return
			}
			k := next[b][t]
			le.PutUint32(f.postIDs[4*k:], order[i])
			f.postW[k] = d
			next[b][t]++
		})
	})
	return f
}

// blockLen returns how many consecutive places each of at most workers
// blocks takes to cover n places. It is even: two places share a byte of
// a column, and two workers must not write the same byte.
func blockLen(n, workers int) int {
	per := max(1, (n+workers-1)/workers)
	return per + per&1
}

// noNode marks the root's parent, an unused node ID and a place the tree
// does not hold.
const noNode = ^uint32(0)

// treeShape is what folding place entries into node entries needs of an
// R-tree: the leaf holding each place and every node's parent, as arrays
// (a few hundred nodes, read by every worker, written by none).
type treeShape struct {
	leafOf []uint32 // by place ordinal
	parent []uint32 // by node ID
}

// newTreeShape reads tree's shape; u numbers its places.
func newTreeShape(tree *rtree.RTree, u *universe) *treeShape {
	sh := &treeShape{leafOf: make([]uint32, u.n), parent: make([]uint32, tree.NumNodes())}
	for o := range sh.leafOf {
		sh.leafOf[o] = noNode
	}
	for n := range sh.parent {
		sh.parent[n] = noNode
	}
	for n := uint32(0); int(n) < tree.NumNodes(); n++ {
		if !tree.IsLeaf(n) {
			for _, ch := range tree.Children(n) {
				sh.parent[ch] = n
			}
			continue
		}
		ids, _ := tree.Leaf(n)
		for _, id := range ids {
			o := u.ordinal(id)
			if o == noOrd {
				panic(fmt.Sprintf("alpha: the tree holds vertex %d, which is not one of the places to index", id))
			}
			sh.leafOf[o] = n
		}
	}
	return sh
}

// fold offers every entry of one term's place file to the entry's leaf
// and up the parent chain, stopping where a node already has a distance
// as small (its ancestors then have one too). Afterwards agg holds the
// term's WN(N) entry for every node N with one.
func (sh *treeShape) fold(agg *minTable, u *universe, e termRep) {
	agg.reset()
	offer := func(o uint32, d uint8) {
		for nd := sh.leafOf[o]; nd != noNode && agg.offer(nd, d); nd = sh.parent[nd] {
		}
	}
	if e.col != nil {
		eachNibble(e.col, offer)
		return
	}
	for i, d := range e.w {
		offer(u.ordinal(le.Uint32(e.ids[4*i:])), d)
	}
}

// termReader lends one term's entries over the place universe, as a
// column or as a list, valid until the reader's next call. derive takes a
// reader per worker, so one may keep buffers.
type termReader func(term uint32) (termRep, error)

// termChunk is how many consecutive terms a worker of derive takes at a
// time. Term lengths are skewed, so the term range is dealt out in pieces
// instead of cut once per worker; each piece's columns share one
// allocation and its lists two more, which the runtime rounds up to whole
// pages, so the pieces are not made smaller than balance needs.
const termChunk = 256

// derive reads every term's entries over u through a reader and returns
// the node file over sh (step 3 of BuildFor), when sh is not nil, and the
// file of the entries themselves, when keep is set. Terms are independent
// and each needs O(nodes) scratch, so the term range is dealt out to the
// workers in chunks, each of which leaves a piece of each file; the
// pieces are written into the images in term order once all are done.
// The first read error ends it.
func derive(numTerms, radius int, newReader func() termReader, u *universe, sh *treeShape, keep bool) (kept, node *File, err error) {
	chunks := (numTerms + termChunk - 1) / termChunk
	var keptPieces, nodePieces []piece
	var nodeU universe
	if keep {
		keptPieces = make([]piece, chunks)
	}
	if sh != nil {
		nodePieces = make([]piece, chunks)
		nodeU = universe{n: len(sh.parent)}
	}
	var failed atomic.Pointer[error]
	parallel(numTerms, termChunk, func() func(lo, hi int) {
		read := newReader()
		entries := chunk{u: u, radius: radius}
		var agg *minTable
		var nodes chunk
		if sh != nil {
			agg = newMinTable(nodeU.n)
			nodes = chunk{u: &nodeU, radius: radius}
		}
		return func(lo, hi int) {
			entries.reset()
			nodes.reset()
			for t := lo; t < hi; t++ {
				if failed.Load() != nil {
					return
				}
				e, err := read(uint32(t))
				if err != nil {
					wrapped := fmt.Errorf("alpha: postings of term %d: %w", t, err)
					failed.CompareAndSwap(nil, &wrapped)
					return
				}
				if keep {
					entries.add(e)
				}
				if sh != nil {
					sh.fold(agg, u, e)
					nodes.addMins(agg)
				}
			}
			if keep {
				keptPieces[lo/termChunk] = entries.cut()
			}
			if sh != nil {
				nodePieces[lo/termChunk] = nodes.cut()
			}
		}
	})
	if e := failed.Load(); e != nil {
		return nil, nil, *e
	}
	if keep {
		kept = assemble(u, numTerms, keptPieces)
	}
	if sh != nil {
		node = assemble(&nodeU, numTerms, nodePieces)
	}
	return kept, node, nil
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
