package rdf

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ksp/internal/geo"
)

func TestTermString(t *testing.T) {
	tests := []struct {
		term Term
		want string
	}{
		{NewIRI("http://x/y"), "<http://x/y>"},
		{NewLiteral("hi"), `"hi"`},
		{NewTypedLiteral("POINT(1 2)", WKTLiteral), `"POINT(1 2)"^^<` + WKTLiteral + `>`},
		{NewBlank("b0"), "_:b0"},
	}
	for _, tt := range tests {
		if got := tt.term.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestParsePointLiteral(t *testing.T) {
	tests := []struct {
		in   string
		want geo.Point
		ok   bool
	}{
		{"POINT(4.66 43.71)", geo.Point{X: 4.66, Y: 43.71}, true},
		{"POINT (4.66 43.71)", geo.Point{X: 4.66, Y: 43.71}, true},
		{"point(-1.5 2)", geo.Point{X: -1.5, Y: 2}, true},
		{"43.71 4.66", geo.Point{X: 4.66, Y: 43.71}, true}, // georss "lat lon"
		{"POINT(1)", geo.Point{}, false},
		{"POINT 1 2", geo.Point{}, false},
		{"not a point", geo.Point{}, false},
		{"", geo.Point{}, false},
		// Non-finite numbers parse as floats but are no location.
		{"POINT(NaN 1)", geo.Point{}, false},
		{"POINT(1 +Inf)", geo.Point{}, false},
		{"POINT(-Inf 0)", geo.Point{}, false},
		{"NaN 2", geo.Point{}, false},
		{"1 infinity", geo.Point{}, false},
	}
	for _, tt := range tests {
		got, ok := ParsePointLiteral(tt.in)
		if ok != tt.ok || (ok && got != tt.want) {
			t.Errorf("ParsePointLiteral(%q) = %v,%v want %v,%v", tt.in, got, ok, tt.want, tt.ok)
		}
	}
}

func buildSample(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder()
	triples := []Triple{
		{NewIRI("ex:Abbey"), NewIRI("ex:dedication"), NewIRI("ex:SaintPeter")},
		{NewIRI("ex:Abbey"), NewIRI("ex:label"), NewLiteral("Montmajour Abbey")},
		{NewIRI("ex:Abbey"), NewIRI("ex:hasGeometry"), NewTypedLiteral("POINT(4.66 43.71)", WKTLiteral)},
		{NewIRI("ex:SaintPeter"), NewIRI("ex:birthPlace"), NewIRI("ex:Anatolia")},
		{NewIRI("ex:SaintPeter"), NewIRI("rdf:type"), NewIRI("ex:Person")},
		{NewIRI("ex:Abbey"), NewIRI("ex:sameAs"), NewIRI("ex:AbbeyCopy")},
	}
	for _, tr := range triples {
		b.AddTriple(tr)
	}
	return b.Build()
}

func TestBuilderTripleIngestion(t *testing.T) {
	g := buildSample(t)

	abbey, ok := g.VertexByURI("ex:Abbey")
	if !ok {
		t.Fatal("abbey vertex missing")
	}
	peter, ok := g.VertexByURI("ex:SaintPeter")
	if !ok {
		t.Fatal("peter vertex missing")
	}
	anatolia, ok := g.VertexByURI("ex:Anatolia")
	if !ok {
		t.Fatal("anatolia vertex missing")
	}

	// sameAs triple dropped entirely: no vertex, no edge.
	if _, ok := g.VertexByURI("ex:AbbeyCopy"); ok {
		t.Error("sameAs object should not become a vertex")
	}
	// type triple folded: no Person vertex.
	if _, ok := g.VertexByURI("ex:Person"); ok {
		t.Error("type object should not become a vertex")
	}

	// Edges: abbey->peter, peter->anatolia.
	if got := g.Out(abbey); !reflect.DeepEqual(got, []uint32{peter}) {
		t.Errorf("Out(abbey) = %v", got)
	}
	if got := g.Out(peter); !reflect.DeepEqual(got, []uint32{anatolia}) {
		t.Errorf("Out(peter) = %v", got)
	}
	if got := g.In(anatolia); !reflect.DeepEqual(got, []uint32{peter}) {
		t.Errorf("In(anatolia) = %v", got)
	}
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2", g.NumEdges())
	}

	// Documents.
	hasWord := func(v uint32, w string) bool {
		id, ok := g.Vocab.Lookup(w)
		return ok && g.HasTerm(v, id)
	}
	for _, w := range []string{"abbey", "montmajour"} { // URI + literal
		if !hasWord(abbey, w) {
			t.Errorf("abbey doc missing %q", w)
		}
	}
	if !hasWord(abbey, "label") {
		t.Error("literal triple should fold predicate text into subject doc")
	}
	// Incoming predicate "dedication" goes to the object (peter).
	if !hasWord(peter, "dedication") {
		t.Error("peter doc missing incoming predicate token")
	}
	// Type folded into subject doc.
	if !hasWord(peter, "person") || !hasWord(peter, "type") {
		t.Error("peter doc missing folded type tokens")
	}
	if !hasWord(anatolia, "birth") || !hasWord(anatolia, "place") {
		t.Error("anatolia doc missing camelCase-split predicate tokens")
	}

	// Geometry.
	if !g.IsPlace(abbey) {
		t.Fatal("abbey should be a place")
	}
	if g.Loc(abbey) != (geo.Point{X: 4.66, Y: 43.71}) {
		t.Errorf("abbey loc = %v", g.Loc(abbey))
	}
	if g.IsPlace(peter) {
		t.Error("peter should not be a place")
	}
	if got := g.Places(); !reflect.DeepEqual(got, []uint32{abbey}) {
		t.Errorf("Places = %v", got)
	}
}

func TestDocSortedDeduped(t *testing.T) {
	b := NewBuilder()
	v := b.AddBareVertex("x")
	for _, w := range []string{"b", "a", "b", "c", "a"} {
		b.AddTermID(v, b.Vocab.ID(w))
	}
	g := b.Build()
	doc := g.Doc(v)
	if len(doc) != 3 {
		t.Fatalf("doc = %v, want 3 unique terms", doc)
	}
	for i := 1; i < len(doc); i++ {
		if doc[i-1] >= doc[i] {
			t.Fatalf("doc not strictly sorted: %v", doc)
		}
	}
}

func TestEdgeDedup(t *testing.T) {
	b := NewBuilder()
	s := b.AddBareVertex("s")
	o := b.AddBareVertex("o")
	b.AddEdge(s, o, "p")
	b.AddEdge(s, o, "p")
	b.AddEdge(s, o, "q") // different predicate kept
	g := b.Build()
	if g.NumEdges() != 2 {
		t.Errorf("NumEdges = %d, want 2 (exact duplicates removed)", g.NumEdges())
	}
}

// Build lays out the CSR as one global sort of the edges by (subject,
// object, predicate) with repeats dropped would, and each document as
// its sorted set of terms: the layout Build made when it sorted every
// edge at once.
func TestBuildLayoutMatchesGlobalSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 20; round++ {
		n := 1 + rng.Intn(60)
		b := NewBuilder()
		for v := 0; v < n; v++ {
			b.AddBareVertex(fmt.Sprintf("v%d", v))
		}
		var edges []edgeRec
		docs := make([][]uint32, n)
		for i := rng.Intn(8 * n); i > 0; i-- {
			s, o, p := uint32(rng.Intn(n)), uint32(rng.Intn(n)), rng.Intn(4)
			b.AddEdge(s, o, fmt.Sprintf("p%d", p))
			edges = append(edges, edgeRec{s: s, o: o, pred: b.predIDs[fmt.Sprintf("p%d", p)]})
			v, term := uint32(rng.Intn(n)), b.Vocab.ID(fmt.Sprintf("t%d", rng.Intn(30)))
			b.AddTermID(v, term)
			docs[v] = append(docs[v], term)
		}
		g := b.Build()

		slices.SortFunc(edges, func(a, c edgeRec) int {
			return cmp.Or(cmp.Compare(a.s, c.s), cmp.Compare(a.o, c.o), cmp.Compare(a.pred, c.pred))
		})
		edges = slices.Compact(edges)
		out, outPreds, in := make([][]uint32, n), make([][]uint32, n), make([][]uint32, n)
		for _, e := range edges {
			out[e.s] = append(out[e.s], e.o)
			outPreds[e.s] = append(outPreds[e.s], e.pred)
			in[e.o] = append(in[e.o], e.s)
		}
		if g.NumEdges() != len(edges) {
			t.Fatalf("round %d: %d edges, want %d", round, g.NumEdges(), len(edges))
		}
		for v := uint32(0); int(v) < n; v++ {
			slices.Sort(docs[v])
			docs[v] = slices.Compact(docs[v])
			if !slices.Equal(g.Out(v), out[v]) || !slices.Equal(g.OutPreds(v), outPreds[v]) ||
				!slices.Equal(g.In(v), in[v]) || !slices.Equal(g.Doc(v), docs[v]) {
				t.Fatalf("round %d, vertex %d: out %v/%v in %v doc %v; want %v/%v %v %v", round, v,
					g.Out(v), g.OutPreds(v), g.In(v), g.Doc(v), out[v], outPreds[v], in[v], docs[v])
			}
		}
	}
}

func TestWCCSizes(t *testing.T) {
	b := NewBuilder()
	a := b.AddBareVertex("a")
	c := b.AddBareVertex("b")
	b.AddEdge(a, c, "p")
	b.AddBareVertex("lonely1")
	b.AddBareVertex("lonely2")
	g := b.Build()
	sizes := g.WCCSizes()
	if !reflect.DeepEqual(sizes, []int{2, 1, 1}) {
		t.Errorf("WCCSizes = %v, want [2 1 1]", sizes)
	}
}

func TestBFSDirections(t *testing.T) {
	// a -> b -> c, d -> b
	b := NewBuilder()
	a := b.AddBareVertex("a")
	bb := b.AddBareVertex("b")
	c := b.AddBareVertex("c")
	d := b.AddBareVertex("d")
	b.AddEdge(a, bb, "p")
	b.AddEdge(bb, c, "p")
	b.AddEdge(d, bb, "p")
	g := b.Build()

	collect := func(root uint32, dir Direction, maxDepth int) map[uint32]int {
		got := make(map[uint32]int)
		s := NewBFSState(g)
		s.Run(root, dir, maxDepth, func(v uint32, dist int) bool {
			got[v] = dist
			return true
		})
		return got
	}

	if got := collect(a, Outgoing, -1); !reflect.DeepEqual(got, map[uint32]int{a: 0, bb: 1, c: 2}) {
		t.Errorf("outgoing from a = %v", got)
	}
	if got := collect(c, Incoming, -1); !reflect.DeepEqual(got, map[uint32]int{c: 0, bb: 1, a: 2, d: 2}) {
		t.Errorf("incoming from c = %v", got)
	}
	if got := collect(c, Undirected, -1); len(got) != 4 {
		t.Errorf("undirected from c = %v, want all 4 vertices", got)
	}
	if got := collect(a, Outgoing, 1); !reflect.DeepEqual(got, map[uint32]int{a: 0, bb: 1}) {
		t.Errorf("depth-limited BFS = %v", got)
	}
}

func TestBFSEarlyStop(t *testing.T) {
	b := NewBuilder()
	a := b.AddBareVertex("a")
	bb := b.AddBareVertex("b")
	c := b.AddBareVertex("c")
	b.AddEdge(a, bb, "p")
	b.AddEdge(bb, c, "p")
	g := b.Build()
	s := NewBFSState(g)
	count := 0
	s.Run(a, Outgoing, -1, func(v uint32, dist int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("visited %d vertices, want early stop after 2", count)
	}
}

func TestBFSStateReuse(t *testing.T) {
	b := NewBuilder()
	a := b.AddBareVertex("a")
	bb := b.AddBareVertex("b")
	b.AddEdge(a, bb, "p")
	g := b.Build()
	s := NewBFSState(g)
	for i := 0; i < 10; i++ {
		n := 0
		s.Run(a, Outgoing, -1, func(uint32, int) bool { n++; return true })
		if n != 2 {
			t.Fatalf("run %d visited %d vertices, want 2", i, n)
		}
	}
}

func TestGraphStats(t *testing.T) {
	g := buildSample(t)
	if g.MemSize() <= 0 {
		t.Error("MemSize must be positive")
	}
	if g.AvgOutDegree() <= 0 {
		t.Error("AvgOutDegree must be positive")
	}
	// Predicate labels round-trip for display.
	abbey, _ := g.VertexByURI("ex:Abbey")
	preds := g.OutPreds(abbey)
	if len(preds) != 1 || g.PredName(preds[0]) != "ex:dedication" {
		t.Errorf("OutPreds display = %v", preds)
	}
}

// SetLocation refuses a point no distance to which orders, and the vertex
// keeps the location it had.
func TestSetLocationRefusesNonFinite(t *testing.T) {
	b := NewBuilder()
	v := b.AddBareVertex("ex:v")
	w := b.AddBareVertex("ex:w")
	if !b.SetLocation(v, geo.Point{X: 1, Y: 2}) {
		t.Fatal("a finite location was refused")
	}
	for _, p := range []geo.Point{{X: math.NaN(), Y: 0}, {X: 0, Y: math.Inf(1)}, {X: math.Inf(-1), Y: 0}} {
		if b.SetLocation(v, p) || b.SetLocation(w, p) {
			t.Errorf("SetLocation(%v) accepted", p)
		}
	}
	g := b.Build()
	if !g.IsPlace(v) || g.Loc(v) != (geo.Point{X: 1, Y: 2}) || g.IsPlace(w) {
		t.Errorf("after the refusals: v is a place %v at %v, w is a place %v", g.IsPlace(v), g.Loc(v), g.IsPlace(w))
	}
}
