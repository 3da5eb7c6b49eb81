package rdf

import (
	"math"
	"sort"

	"ksp/internal/geo"
	"ksp/internal/mmapfile"
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
// place vertices. Build one with a Builder.
type Graph struct {
	Vocab *text.Vocabulary

	analyzer text.Analyzer

	// URI table, flattened: one contiguous byte blob plus uint32
	// offsets (uriOff[v]..uriOff[v+1] delimit vertex v's URI) and a
	// permutation of vertex IDs sorted by URI for binary-search lookup.
	// Two GC-opaque slices replace the n strings + n map entries a
	// []string + map[string]uint32 layout costs the collector.
	uriBlob []byte
	uriOff  []uint32
	uriSort []uint32

	// CSR adjacency. outEdges[outOff[v]:outOff[v+1]] are v's successors;
	// outPreds is parallel to outEdges and holds predicate-name indexes.
	outOff   []uint32
	outEdges []uint32
	outPreds []uint32
	inOff    []uint32
	inEdges  []uint32

	predNames []string

	// Documents: sorted term IDs per vertex in CSR form. When docSrc is
	// non-nil the term array lives in that file from docBase on
	// (AttachExternalDocs) and docTerms is nil; docOff stays resident
	// either way.
	docOff   []uint32
	docTerms []uint32
	docSrc   *mmapfile.File
	docBase  int64

	isPlace []bool
	coords  []geo.Point
	places  []uint32
}

// NumVertices returns the vertex count.
func (g *Graph) NumVertices() int {
	if len(g.uriOff) == 0 {
		return 0
	}
	return len(g.uriOff) - 1
}

// NumEdges returns the directed edge count.
func (g *Graph) NumEdges() int { return len(g.outEdges) }

// URI returns the URI (or blank label) of vertex v. The string is
// copied out of the flat table; hot paths should hold vertex IDs, not
// URIs.
func (g *Graph) URI(v uint32) string { return string(g.uriBytes(v)) }

// uriBytes returns vertex v's URI as a slice of the flat blob.
func (g *Graph) uriBytes(v uint32) []byte { return g.uriBlob[g.uriOff[v]:g.uriOff[v+1]] }

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
	lo, hi := 0, len(g.uriSort)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if cmpBytesString(g.uriBytes(g.uriSort[mid]), uri) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.uriSort) {
		v := g.uriSort[lo]
		if cmpBytesString(g.uriBytes(v), uri) == 0 {
			return v, true
		}
	}
	return NoVertex, false
}

// cmpBytesString is bytes.Compare against a string, avoiding the
// []byte(string) conversion an equality through string(b) would cost.
func cmpBytesString(b []byte, s string) int {
	n := len(b)
	if len(s) < n {
		n = len(s)
	}
	for i := 0; i < n; i++ {
		if b[i] != s[i] {
			if b[i] < s[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(b) < len(s):
		return -1
	case len(b) > len(s):
		return 1
	}
	return 0
}

// Out returns the successors of v. The returned slice is shared; do not
// modify.
func (g *Graph) Out(v uint32) []uint32 { return g.outEdges[g.outOff[v]:g.outOff[v+1]] }

// OutPreds returns predicate-name indexes parallel to Out(v).
func (g *Graph) OutPreds(v uint32) []uint32 { return g.outPreds[g.outOff[v]:g.outOff[v+1]] }

// PredName returns the predicate name for an index from OutPreds.
func (g *Graph) PredName(i uint32) string { return g.predNames[i] }

// NumPredNames returns the size of the predicate-name table.
func (g *Graph) NumPredNames() int { return len(g.predNames) }

// In returns the predecessors of v. The returned slice is shared.
func (g *Graph) In(v uint32) []uint32 { return g.inEdges[g.inOff[v]:g.inOff[v+1]] }

// Doc returns the sorted term IDs of v's document: a slice of the
// graph's own immutable term array, or — for documents attached from a
// disk-resident snapshot — a fresh decode on every call. Treat it as
// read-only.
func (g *Graph) Doc(v uint32) []uint32 {
	start, end := g.docOff[v], g.docOff[v+1]
	if g.docSrc != nil {
		if start == end {
			return nil
		}
		return g.diskDoc(v, start, end)
	}
	return g.docTerms[start:end]
}

// HasTerm reports whether term t appears in v's document.
func (g *Graph) HasTerm(v uint32, t uint32) bool {
	doc := g.Doc(v)
	i := sort.Search(len(doc), func(i int) bool { return doc[i] >= t })
	return i < len(doc) && doc[i] == t
}

// IsPlace reports whether v carries spatial coordinates.
func (g *Graph) IsPlace(v uint32) bool { return g.isPlace[v] }

// Loc returns the coordinates of a place vertex. For non-places the result
// is meaningless; check IsPlace first.
func (g *Graph) Loc(v uint32) geo.Point { return g.coords[v] }

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

// MemSize estimates the in-memory footprint in bytes (Table 4
// experiment): adjacency arrays, documents, coordinates, the place
// list, and the flat URI table (blob + offsets + sorted permutation).
// With documents on disk the resident cost is the offset table alone.
func (g *Graph) MemSize() int64 {
	var sz int64
	sz += int64(len(g.outOff)+len(g.outEdges)+len(g.outPreds)+len(g.inOff)+len(g.inEdges)) * 4
	sz += int64(len(g.docOff)+len(g.docTerms)) * 4
	sz += int64(len(g.coords)) * 16
	sz += int64(len(g.isPlace))
	sz += int64(len(g.places)) * 4
	sz += int64(len(g.uriBlob))
	sz += int64(len(g.uriOff)+len(g.uriSort)) * 4
	for _, p := range g.predNames {
		sz += int64(len(p)) + 16
	}
	return sz
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
