package rdf

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"ksp/internal/geo"
	"ksp/internal/text"
)

// NoVertex is the sentinel for "no such vertex".
const NoVertex = ^uint32(0)

// Direction selects how graph traversals follow edges. The paper's kSP
// definition follows outgoing edges from the root (the root reaches the
// keyword vertices); its future-work alternative disregards direction.
type Direction uint8

const (
	// Outgoing follows subject->object edges (paper default).
	Outgoing Direction = iota
	// Incoming follows object->subject edges.
	Incoming
	// Undirected follows edges both ways (paper's future-work variant).
	Undirected
)

func (d Direction) String() string {
	switch d {
	case Outgoing:
		return "outgoing"
	case Incoming:
		return "incoming"
	default:
		return "undirected"
	}
}

// Graph is an immutable spatial RDF graph in compressed adjacency-list
// (CSR) form, with per-vertex documents (term-ID sets) and coordinates for
// place vertices. Build one with a Builder, or view a snapshot image of
// one with FromArrays: either way every field is a flat array, on the heap
// or in a mapping, and the accessors read them alike.
type Graph struct {
	Vocab *text.Vocabulary

	analyzer text.Analyzer

	// URI table: a blob, offsets, and the URI-sorted permutation of
	// vertex IDs VertexByURI searches.
	uris text.Table

	// CSR adjacency. outEdges[outOff[v]:outOff[v+1]] are v's successors
	// in ascending (target, predicate) order; outPreds is parallel to
	// outEdges and holds predicate-name indexes into preds. In-lists are
	// the transpose: each source once per edge, ascending.
	outOff   []uint32
	outEdges []uint32
	outPreds []uint32
	inOff    []uint32
	inEdges  []uint32

	preds text.Table

	// Documents: strictly ascending term IDs per vertex in CSR form.
	docOff   []uint32
	docTerms []uint32

	// Places in ascending vertex-ID order, coords[i] the location of
	// places[i], and placeOrd[v] the i of vertex v, NoVertex for a vertex
	// that is not a place.
	places   []uint32
	placeOrd []uint32
	coords   []geo.Point
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int { return g.uris.Len() }

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.outEdges) }

// URI returns the URI (or blank label) of vertex v. The string is
// copied out of the flat table; hot paths should hold vertex IDs, not
// URIs.
func (g *Graph) URI(v uint32) string { return g.uris.String(v) }

// Analyzer returns the text analyzer the documents were built with;
// queries must normalize keywords through it.
func (g *Graph) Analyzer() text.Analyzer { return g.analyzer }

// Analyze normalizes free text with the graph's analyzer.
func (g *Graph) Analyze(s string) []string { return g.analyzer.Analyze(s) }

// VertexByURI resolves a URI to a vertex ID; ok is false when absent.
// Lookup is a binary search over the URI-sorted permutation —
// O(log n) byte comparisons against the flat blob, no per-call
// allocation.
func (g *Graph) VertexByURI(uri string) (uint32, bool) {
	if v, ok := g.uris.Find(uri); ok {
		return v, true
	}
	return NoVertex, false
}

// Out returns the successors of v. The returned slice is shared; do not
// modify.
func (g *Graph) Out(v uint32) []uint32 { return g.outEdges[g.outOff[v]:g.outOff[v+1]] }

// OutPreds returns predicate-name indexes parallel to Out(v).
func (g *Graph) OutPreds(v uint32) []uint32 { return g.outPreds[g.outOff[v]:g.outOff[v+1]] }

// PredName returns the predicate name for an index from OutPreds.
func (g *Graph) PredName(i uint32) string { return g.preds.String(i) }

// NumPredNames returns the size of the predicate-name table.
func (g *Graph) NumPredNames() int { return g.preds.Len() }

// In returns the predecessors of v. The returned slice is shared.
func (g *Graph) In(v uint32) []uint32 { return g.inEdges[g.inOff[v]:g.inOff[v+1]] }

// Doc returns the sorted term IDs of v's document, a slice of the
// graph's own immutable term array. Treat it as read-only.
func (g *Graph) Doc(v uint32) []uint32 { return g.docTerms[g.docOff[v]:g.docOff[v+1]] }

// HasTerm reports whether term t appears in v's document.
func (g *Graph) HasTerm(v uint32, t uint32) bool {
	_, ok := slices.BinarySearch(g.Doc(v), t)
	return ok
}

// IsPlace reports whether v carries spatial coordinates.
func (g *Graph) IsPlace(v uint32) bool { return g.placeOrd[v] != NoVertex }

// Loc returns the coordinates of a place vertex, the zero Point for any
// other vertex.
func (g *Graph) Loc(v uint32) geo.Point {
	if i := g.placeOrd[v]; i != NoVertex {
		return g.coords[i]
	}
	return geo.Point{}
}

// Places returns all place vertex IDs in ascending order. Shared slice.
func (g *Graph) Places() []uint32 { return g.places }

// Degree statistics used by dataset reports.
func (g *Graph) AvgOutDegree() float64 {
	n := g.NumVertices()
	if n == 0 {
		return 0
	}
	return float64(len(g.outEdges)) / float64(n)
}

// MemSize estimates the footprint in bytes (Table 4 experiment):
// adjacency arrays, documents, places and their coordinates, and the flat
// URI and predicate tables. The vocabulary is not counted.
func (g *Graph) MemSize() int64 {
	words := 0
	for _, a := range [][]uint32{
		g.outOff, g.outEdges, g.outPreds, g.inOff, g.inEdges, g.docOff, g.docTerms,
		g.places, g.placeOrd, g.uris.Off, g.uris.Sorted, g.preds.Off,
	} {
		words += len(a)
	}
	return 4*int64(words) + 16*int64(len(g.coords)) + int64(len(g.uris.Blob)+len(g.preds.Blob))
}

// Arrays are the flat arrays a Graph reads, as a snapshot image stores
// them: Graph.Arrays hands them out, and FromArrays makes a Graph of a
// set. The field names are the Graph's.
type Arrays struct {
	Terms, URIs, Preds         text.Table
	OutOff, OutEdges, OutPreds []uint32
	InOff, InEdges             []uint32
	DocOff, DocTerms           []uint32
	Places, PlaceOrd           []uint32
	Coords                     []geo.Point
}

// Arrays returns the arrays g reads, sharing their memory.
func (g *Graph) Arrays() Arrays {
	return Arrays{
		Terms: g.Vocab.Table(), URIs: g.uris, Preds: g.preds,
		OutOff: g.outOff, OutEdges: g.outEdges, OutPreds: g.outPreds,
		InOff: g.inOff, InEdges: g.inEdges,
		DocOff: g.docOff, DocTerms: g.docTerms,
		Places: g.places, PlaceOrd: g.placeOrd, Coords: g.coords,
	}
}

// FromArrays returns the Graph that reads a, sharing its memory, once
// a is exactly what Build makes of some input: tables whose offsets span
// their blobs and whose sorted permutations strictly ascend; out-lists
// strictly ascending by (target, predicate) within range; in-lists that
// are their transpose; strictly ascending documents of known terms; and
// strictly ascending places, each with its ordinal and a finite location.
// Anything else is an error, and a Graph's accessors and traversals can
// rely on these invariants without checking them again.
func FromArrays(a Arrays, analyzer text.Analyzer) (*Graph, error) {
	if err := a.check(); err != nil {
		return nil, fmt.Errorf("rdf: %w", err)
	}
	return &Graph{
		Vocab:    text.FrozenVocabulary(a.Terms),
		analyzer: analyzer,
		uris:     a.URIs, preds: a.Preds,
		outOff: a.OutOff, outEdges: a.OutEdges, outPreds: a.OutPreds,
		inOff: a.InOff, inEdges: a.InEdges,
		docOff: a.DocOff, docTerms: a.DocTerms,
		places: a.Places, placeOrd: a.PlaceOrd, coords: a.Coords,
	}, nil
}

func (a *Arrays) check() error {
	for _, t := range []struct {
		name   string
		t      *text.Table
		sorted bool
	}{{"vocabulary", &a.Terms, true}, {"URI table", &a.URIs, true}, {"predicate table", &a.Preds, false}} {
		if err := t.t.Check(t.sorted); err != nil {
			return fmt.Errorf("%s: %v", t.name, err)
		}
	}
	n := a.URIs.Len()
	if err := checkCSR("out-list", a.OutOff, n, len(a.OutEdges)); err != nil {
		return err
	}
	if len(a.OutPreds) != len(a.OutEdges) {
		return fmt.Errorf("%d predicates for %d edges", len(a.OutPreds), len(a.OutEdges))
	}
	for v := 0; v < n; v++ {
		for i := a.OutOff[v]; i < a.OutOff[v+1]; i++ {
			o, p := a.OutEdges[i], a.OutPreds[i]
			if int(o) >= n || int(p) >= a.Preds.Len() {
				return fmt.Errorf("edge of vertex %d to an unknown vertex or predicate", v)
			}
			if i > a.OutOff[v] {
				if po, pp := a.OutEdges[i-1], a.OutPreds[i-1]; o < po || o == po && p <= pp {
					return fmt.Errorf("out-list of vertex %d is not strictly ascending", v)
				}
			}
		}
	}
	if err := checkCSR("in-list", a.InOff, n, len(a.InEdges)); err != nil {
		return err
	}
	if len(a.InEdges) != len(a.OutEdges) {
		return fmt.Errorf("%d in-edges for %d out-edges", len(a.InEdges), len(a.OutEdges))
	}
	// Build lays each in-list out as the sources of its out-edges in
	// ascending order; replaying that consumes every in-list exactly, as
	// no list overflows and the totals agree.
	next := slices.Clone(a.InOff[:n])
	for s := 0; s < n; s++ {
		for _, o := range a.OutEdges[a.OutOff[s]:a.OutOff[s+1]] {
			if next[o] == a.InOff[o+1] || a.InEdges[next[o]] != uint32(s) {
				return fmt.Errorf("in-list of vertex %d is not the transpose of the out-lists", o)
			}
			next[o]++
		}
	}
	if err := checkCSR("document", a.DocOff, n, len(a.DocTerms)); err != nil {
		return err
	}
	for v := 0; v < n; v++ {
		for i := a.DocOff[v]; i < a.DocOff[v+1]; i++ {
			if t := a.DocTerms[i]; int(t) >= a.Terms.Len() {
				return fmt.Errorf("document of vertex %d holds an unknown term", v)
			} else if i > a.DocOff[v] && t <= a.DocTerms[i-1] {
				return fmt.Errorf("document of vertex %d is not strictly ascending", v)
			}
		}
	}
	if len(a.PlaceOrd) != n || len(a.Coords) != len(a.Places) {
		return fmt.Errorf("%d place ordinals and %d locations for %d vertices and %d places", len(a.PlaceOrd), len(a.Coords), n, len(a.Places))
	}
	for i, p := range a.Places {
		if int(p) >= n || i > 0 && p <= a.Places[i-1] {
			return errors.New("places are not strictly ascending vertices")
		}
		if a.PlaceOrd[p] != uint32(i) {
			return fmt.Errorf("place %d has ordinal %d, not %d", p, a.PlaceOrd[p], i)
		}
		if !a.Coords[i].Finite() {
			return fmt.Errorf("place %d is at %v", p, a.Coords[i])
		}
	}
	ords := 0
	for _, o := range a.PlaceOrd {
		if o != NoVertex {
			ords++
		}
	}
	if ords != len(a.Places) {
		return fmt.Errorf("%d place ordinals for %d places", ords, len(a.Places))
	}
	return nil
}

// checkCSR checks the offsets of n lists in an arena of size entries:
// n+1 of them, from 0 to size, never descending.
func checkCSR(what string, off []uint32, n, size int) error {
	if len(off) != n+1 || off[0] != 0 || int(off[n]) != size {
		return fmt.Errorf("%s offsets do not span their %d entries", what, size)
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return fmt.Errorf("%s offsets descend at vertex %d", what, v)
		}
	}
	return nil
}

// WCCSizes returns the sizes of the weakly connected components in
// descending order. The paper reports its cleaned datasets consist of one
// huge WCC plus a few tiny ones; the generator tests assert the same shape.
func (g *Graph) WCCSizes() []int {
	n := g.NumVertices()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for v := 0; v < n; v++ {
		for _, w := range g.Out(uint32(v)) {
			union(int32(v), int32(w))
		}
	}
	// Component sizes, counted into a dense slice indexed by root: every
	// root is a vertex ID, so a []int over the vertex space replaces the
	// map the old implementation allocated per call.
	counts := make([]int, n)
	for v := 0; v < n; v++ {
		counts[find(int32(v))]++
	}
	var sizes []int
	for _, c := range counts {
		if c > 0 {
			sizes = append(sizes, c)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// BFSState carries reusable scratch for breadth-first traversals so that
// repeated BFS runs (α-WN construction does one per place) allocate
// nothing. Not safe for concurrent use; create one per goroutine.
type BFSState struct {
	g       *Graph
	visited []uint32 // epoch stamps
	epoch   uint32
	queue   []bfsItem
}

type bfsItem struct {
	v    uint32
	dist int32
}

// NewBFSState returns traversal scratch bound to g.
func NewBFSState(g *Graph) *BFSState {
	return &BFSState{g: g, visited: make([]uint32, g.NumVertices())}
}

// Run performs BFS from root following dir edges up to maxDepth (negative
// means unbounded), invoking visit for every reached vertex including the
// root itself (dist 0) in non-decreasing distance order. visit returning
// false aborts the traversal.
func (s *BFSState) Run(root uint32, dir Direction, maxDepth int, visit func(v uint32, dist int) bool) {
	s.epoch++
	if s.epoch == 0 { // wrapped: reset stamps
		for i := range s.visited {
			s.visited[i] = 0
		}
		s.epoch = 1
	}
	if maxDepth < 0 {
		maxDepth = math.MaxInt32
	}
	q := s.queue[:0]
	q = append(q, bfsItem{v: root, dist: 0})
	s.visited[root] = s.epoch
	for head := 0; head < len(q); head++ {
		cur := q[head]
		if !visit(cur.v, int(cur.dist)) {
			s.queue = q
			return
		}
		if int(cur.dist) >= maxDepth {
			continue
		}
		push := func(w uint32) {
			if s.visited[w] != s.epoch {
				s.visited[w] = s.epoch
				q = append(q, bfsItem{v: w, dist: cur.dist + 1})
			}
		}
		if dir == Outgoing || dir == Undirected {
			for _, w := range s.g.Out(cur.v) {
				push(w)
			}
		}
		if dir == Incoming || dir == Undirected {
			for _, w := range s.g.In(cur.v) {
				push(w)
			}
		}
	}
	s.queue = q
}
