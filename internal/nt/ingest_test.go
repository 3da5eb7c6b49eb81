package nt

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/paperdata"
	"ksp/internal/rdf"
	"ksp/internal/store"
	"ksp/internal/text"
)

// refBuilder is triple ingest as it was before rdf.Builder remembered
// what it works out per predicate: every triple tokenizes its predicate,
// matches the joined tokens against the policy tables and analyzes the
// predicate's text again. It drives an rdf.Builder only through
// AddBareVertex, AddTermID, AddEdge and SetLocation, so the graph it
// builds is the one per-triple ingest made, and the tests below check
// that Builder.AddTriple makes the same one.
type refBuilder struct {
	b *rdf.Builder
	n uint32 // vertices interned so far
}

var (
	refSkip = map[string]bool{
		"sameas": true, "linksto": true, "redirectto": true,
		"wikipageredirects": true, "wikipagewikilink": true,
	}
	refType = map[string]bool{"type": true}
	refGeo  = map[string]bool{
		"geometry": true, "hasgeometry": true, "point": true,
		"location": true, "georsspoint": true,
	}
)

func (r *refBuilder) vertex(uri string) uint32 {
	v := r.b.AddBareVertex(uri)
	if v == r.n {
		r.n++
		r.text(v, uri)
	}
	return v
}

func (r *refBuilder) text(v uint32, s string) {
	for _, tok := range r.b.Analyzer.Analyze(s) {
		r.b.AddTermID(v, r.b.Vocab.ID(tok))
	}
}

func (r *refBuilder) addTriple(t rdf.Triple) bool {
	if !t.S.IsEntity() {
		return false
	}
	predTokens := text.TokenizeSet(t.P.Value)
	key := strings.Join(predTokens, "")
	if len(predTokens) > 0 && refSkip[key] {
		return false
	}
	s := r.vertex(t.S.Value)
	if t.O.Kind == rdf.Literal && (t.O.Datatype == rdf.WKTLiteral || refGeo[key]) {
		if pt, ok := rdf.ParsePointLiteral(t.O.Value); ok {
			r.b.SetLocation(s, pt)
			return true
		}
		return false
	}
	switch {
	case t.O.Kind == rdf.Literal, refType[key]:
		r.text(s, t.P.Value)
		r.text(s, t.O.Value)
	default:
		o := r.vertex(t.O.Value)
		r.b.AddEdge(s, o, t.P.Value)
		r.text(o, t.P.Value)
	}
	return true
}

// loadRef is Load over the reference builder.
func loadRef(in io.Reader, r *refBuilder) (accepted int, err error) {
	rd := NewReader(in)
	for {
		t, err := rd.Next()
		if err == io.EOF {
			return accepted, nil
		}
		if err != nil {
			return accepted, err
		}
		if r.addTriple(t) {
			accepted++
		}
	}
}

// loadBoth loads src with Load and with the reference builder, both
// under analyzer a, and fails unless they accept the same count and make
// identical graphs. It returns the graph and Load's error.
func loadBoth(t *testing.T, src string, a text.Analyzer) (*rdf.Graph, error) {
	t.Helper()
	b := rdf.NewBuilder()
	b.Analyzer = a
	n, err := Load(strings.NewReader(src), b)
	ref := &refBuilder{b: rdf.NewBuilder()}
	ref.b.Analyzer = a
	refN, refErr := loadRef(strings.NewReader(src), ref)
	if n != refN || fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("Load accepted %d (%v), the reference %d (%v)", n, err, refN, refErr)
	}
	g := b.Build()
	sameGraph(t, ref.b.Build(), g)
	return g, err
}

// sameGraph fails unless got answers every accessor as want does and
// serializes to the same snapshot bytes.
func sameGraph(t *testing.T, want, got *rdf.Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() ||
		got.NumPredNames() != want.NumPredNames() || got.Vocab.Len() != want.Vocab.Len() {
		t.Fatalf("sizes differ: got %d vertices, %d edges, %d predicates, %d terms; want %d, %d, %d, %d",
			got.NumVertices(), got.NumEdges(), got.NumPredNames(), got.Vocab.Len(),
			want.NumVertices(), want.NumEdges(), want.NumPredNames(), want.Vocab.Len())
	}
	for i := 0; i < want.Vocab.Len(); i++ {
		if got.Vocab.Term(uint32(i)) != want.Vocab.Term(uint32(i)) {
			t.Fatalf("term %d is %q, want %q", i, got.Vocab.Term(uint32(i)), want.Vocab.Term(uint32(i)))
		}
	}
	for i := 0; i < want.NumPredNames(); i++ {
		if got.PredName(uint32(i)) != want.PredName(uint32(i)) {
			t.Fatalf("predicate %d is %q, want %q", i, got.PredName(uint32(i)), want.PredName(uint32(i)))
		}
	}
	for v := uint32(0); int(v) < want.NumVertices(); v++ {
		if got.URI(v) != want.URI(v) {
			t.Fatalf("vertex %d is %q, want %q", v, got.URI(v), want.URI(v))
		}
		if u, ok := got.VertexByURI(want.URI(v)); !ok || u != v {
			t.Fatalf("VertexByURI(%q) = %d, %v; want %d", want.URI(v), u, ok, v)
		}
		if !reflect.DeepEqual(got.Out(v), want.Out(v)) || !reflect.DeepEqual(got.OutPreds(v), want.OutPreds(v)) {
			t.Fatalf("vertex %d: out %v/%v, want %v/%v", v, got.Out(v), got.OutPreds(v), want.Out(v), want.OutPreds(v))
		}
		if !reflect.DeepEqual(got.In(v), want.In(v)) {
			t.Fatalf("vertex %d: in %v, want %v", v, got.In(v), want.In(v))
		}
		if !reflect.DeepEqual(got.Doc(v), want.Doc(v)) {
			t.Fatalf("vertex %d: document %v, want %v", v, got.Doc(v), want.Doc(v))
		}
		if got.IsPlace(v) != want.IsPlace(v) || got.Loc(v) != want.Loc(v) {
			t.Fatalf("vertex %d: place %v at %v, want %v at %v", v, got.IsPlace(v), got.Loc(v), want.IsPlace(v), want.Loc(v))
		}
	}
	if !reflect.DeepEqual(got.Places(), want.Places()) {
		t.Fatalf("places %v, want %v", got.Places(), want.Places())
	}
	if !reflect.DeepEqual(got.Arrays(), want.Arrays()) {
		t.Fatal("the graphs' arrays differ")
	}
	var wb, gb bytes.Buffer
	if err := store.Write(&wb, &store.Snapshot{Graph: want}); err != nil {
		t.Fatal(err)
	}
	if err := store.Write(&gb, &store.Snapshot{Graph: got}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb.Bytes(), wb.Bytes()) {
		t.Fatal("the graphs' snapshots differ")
	}
}

var analyzers = []text.Analyzer{{}, {RemoveStopwords: true, Stemming: true}}

func export(t testing.TB, g *rdf.Graph) string {
	t.Helper()
	var buf strings.Builder
	if err := WriteGraph(g, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// Exports of the generators' graphs and of Figure 1 load into the same
// graph through AddTriple as through per-triple ingest.
func TestLoadMatchesReferenceOnExports(t *testing.T) {
	for name, g := range map[string]*rdf.Graph{
		"dbpedia":  gen.Generate(gen.DBpediaConfig(3000, 1)),
		"yago":     gen.Generate(gen.YagoConfig(3000, 2)),
		"figure 1": paperdata.Figure1().G,
	} {
		src := export(t, g)
		for _, a := range analyzers {
			t.Run(fmt.Sprintf("%s/%+v", name, a), func(t *testing.T) {
				got, err := loadBoth(t, src, a)
				if err != nil {
					t.Fatal(err)
				}
				if got.NumEdges() != g.NumEdges() || len(got.Places()) != len(g.Places()) {
					t.Fatalf("reloaded %d edges, %d places; exported %d, %d",
						got.NumEdges(), len(got.Places()), g.NumEdges(), len(g.Places()))
				}
			})
		}
	}
}

// policyCases exercise each way a predicate's triples are ingested, and
// the orders in which a predicate's edge ID and terms are first used.
var policyCases = map[string]string{
	"skip-listed": `
<http://ex/Abbey> <http://www.w3.org/2002/07/owl#sameAs> <http://ex/Copy> .
<http://ex/Abbey> <http://dbpedia.org/ontology/wikiPageWikiLink> <http://ex/Other> .
<http://ex/Abbey> <http://ex/redirectTo> "text" .
<http://ex/Abbey> <http://ex/dedication> <http://ex/Saint_Peter> .
<http://ex/Copy> <http://ex/sameAs> <http://ex/Abbey> .
`,
	"rdf:type": `
<http://ex/Abbey> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://dbpedia.org/ontology/Religious_Building> .
<http://ex/Abbey> <rdf:type> _:kind .
<http://ex/Peter> <http://ex/type> "Saint Person" .
<http://ex/Peter> <http://ex/birthPlace> <http://ex/Religious_Building> .
`,
	"WKT datatype": `
<http://ex/Abbey> <http://www.opengis.net/ont/geosparql#asWKT> "POINT(4.66 43.71)"^^<` + rdf.WKTLiteral + `> .
<http://ex/Bad> <http://www.opengis.net/ont/geosparql#asWKT> "POINT(4.66)"^^<` + rdf.WKTLiteral + `> .
<http://ex/Abbey> <http://www.opengis.net/ont/geosparql#asWKT> "a label, not geometry" .
<http://ex/Abbey> <http://ex/label> "POINT(1 2)"^^<` + rdf.WKTLiteral + `> .
<http://ex/Abbey> <http://ex/label> "Montmajour Abbey" .
`,
	"georss by name": `
<http://ex/Abbey> <http://www.georss.org/georss/point> "43.71 4.66" .
<http://ex/Bad> <http://www.georss.org/georss/point> "forty three" .
<http://ex/Abbey> <http://www.georss.org/georss/point> <http://ex/Point_Of_Interest> .
<http://ex/Town> <http://ex/hasGeometry> "1 2" .
<http://ex/Town> <http://ex/location> <http://ex/Abbey> .
`,
	"literal then edge": `
<http://ex/Abbey> <http://ex/dedication> "Saint Peter" .
<http://ex/Abbey> <http://ex/patron> <http://ex/Mary> .
<http://ex/Abbey> <http://ex/dedication> <http://ex/Saint_Peter> .
<http://ex/Mary> <http://ex/dedication> <http://ex/Abbey> .
`,
	"geometry then text": `
<http://ex/Abbey> <http://ex/point> "1 2" .
<http://ex/Abbey> <http://ex/point> "not a point" .
<http://ex/Abbey> <http://ex/point> <http://ex/Center> .
`,
	"repeated triple": `
<http://ex/Abbey> <http://ex/dedication> <http://ex/Saint_Peter> .
<http://ex/Abbey> <http://ex/dedication> <http://ex/Saint_Peter> .
<http://ex/Abbey> <http://ex/diocese> <http://ex/Saint_Peter> .
<http://ex/Abbey> <http://ex/dedication> <http://ex/Saint_Peter> .
<http://ex/Abbey> <http://ex/label> "abbey abbey" .
<http://ex/Abbey> <http://ex/label> "abbey abbey" .
`,
	"predicate shares terms with URIs": `
<http://ex/Roman_Empire> <http://ex/romanEmpireCapital> <http://ex/Rome> .
<http://ex/Rome> <http://ex/capitalOf> <http://ex/Roman_Empire> .
<http://ex/Rome> <http://ex/capital_of_the_roman_roman_Empire> "the capital" .
`,
	"subjects out of order": `
_:b1 <http://ex/p> _:b2 .
<> <http://ex/p> <http://ex/Abbey> .
<http://ex/Abbey> <http://ex/p> <> .
<> <http://ex/q> "empty subject" .
_:b1 <http://ex/p> <> .
<http://ex/_> <_> <http://ex/-> .
`,
}

func TestLoadMatchesReferenceOnPolicyCases(t *testing.T) {
	for name, src := range policyCases {
		for _, a := range analyzers {
			t.Run(fmt.Sprintf("%s/%+v", name, a), func(t *testing.T) {
				if _, err := loadBoth(t, src, a); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// FuzzLoad checks that, for any input, Load and per-triple ingest accept
// the same count, fail alike, and make identical graphs. Run the seed
// corpus with `go test`; explore with
// `go test -fuzz FuzzLoad -run '^$' ./internal/nt`.
func FuzzLoad(f *testing.F) {
	for _, src := range policyCases {
		f.Add(src, false)
	}
	f.Add(export(f, paperdata.Figure1().G), true)
	f.Add("<a> <b> <c> .\n<a> <sameAs> <c> .\n<a> <type> <T> .\n<c> <b> \"x y x\" .", true)
	f.Add("<a> <b> <c> .\nbroken\n<a> <d> <e> .", false)
	f.Fuzz(func(t *testing.T, src string, analyze bool) {
		a := text.Analyzer{}
		if analyze {
			a = text.Analyzer{RemoveStopwords: true, Stemming: true}
		}
		loadBoth(t, src, a)
	})
}
