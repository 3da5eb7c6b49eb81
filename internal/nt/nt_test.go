package nt

import (
	"bytes"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

func parseAll(t *testing.T, src string) []rdf.Triple {
	t.Helper()
	r := NewReader(strings.NewReader(src))
	var out []rdf.Triple
	for {
		tr, err := r.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		out = append(out, tr)
	}
}

func TestParseBasic(t *testing.T) {
	src := `
# a comment
<http://ex/s> <http://ex/p> <http://ex/o> .
<http://ex/s> <http://ex/label> "hello world" .
_:b0 <http://ex/p> "42"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/s> <http://ex/name> "bonjour"@fr .
`
	got := parseAll(t, src)
	want := []rdf.Triple{
		{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/o")},
		{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/label"), O: rdf.NewLiteral("hello world")},
		{S: rdf.NewBlank("b0"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewTypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer")},
		{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/name"), O: rdf.NewLiteral("bonjour")},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v\nwant %v", got, want)
	}
}

func TestParseEscapes(t *testing.T) {
	src := `<http://s> <http://p> "a\tb\nc\"d\\eé\U0001F600" .`
	got := parseAll(t, src)
	want := "a\tb\nc\"d\\eé😀"
	if len(got) != 1 || got[0].O.Value != want {
		t.Fatalf("got %q, want %q", got[0].O.Value, want)
	}
}

func TestParseWKT(t *testing.T) {
	src := `<http://ex/abbey> <http://www.opengis.net/ont/geosparql#asWKT> "POINT(4.66 43.71)"^^<` + rdf.WKTLiteral + `> .`
	got := parseAll(t, src)
	if len(got) != 1 || got[0].O.Datatype != rdf.WKTLiteral {
		t.Fatalf("WKT literal not parsed: %v", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`<http://s> <http://p> .`,                  // missing object
		`<http://s> <http://p> <http://o>`,         // missing dot
		`"lit" <http://p> <http://o> .`,            // literal subject
		`<http://s> "p" <http://o> .`,              // literal predicate
		`<http://s> <http://p> "unterminated .`,    // unterminated literal
		`<http://s> <http://p> <http://o> . extra`, // trailing garbage
		`<http://s <http://p> <http://o> .`,        // unterminated IRI (eats rest)
		`<http://s> <http://p> "x\q" .`,            // bad escape
		`<http://s> <http://p> "x\u12" .`,          // truncated \u
		`_: <http://p> <http://o> .`,               // empty blank label
		`<http://s> <http://p> "x"@ .`,             // empty language tag
		`<http://s> <http://p> "x"^^"notaniri" .`,  // malformed datatype
		`<http://s> <http://p> "x\U00110000" .`,    // beyond U+10FFFF
		`<http://s> <http://p> "x\uD800" .`,        // lone surrogate
	}
	// A line over the 1 MiB limit.
	bad = append(bad, `<http://s> <http://p> "`+strings.Repeat("x", maxLine)+`" .`)
	for _, src := range bad {
		r := NewReader(strings.NewReader(src))
		_, err := r.Next()
		if err == nil || err == io.EOF {
			t.Errorf("expected parse error for %q, got %v", src, err)
			continue
		}
		var pe *ParseError
		if !errorsAs(err, &pe) {
			t.Errorf("error for %q is not a *ParseError: %v", src, err)
		} else if pe.Line != 1 {
			t.Errorf("error line = %d, want 1", pe.Line)
		}
	}
}

// The failures that once surfaced as something else: each is a
// *ParseError naming its line and what is wrong.
func TestParseErrorMessages(t *testing.T) {
	long := `<http://s> <http://p> "` + strings.Repeat("x", maxLine) + `" .`
	tests := []struct {
		src  string
		line int
		want string
	}{
		{`<http://s> <http://p> "x\U00110000" .`, 1, `\U00110000 is not a Unicode scalar value`},
		{`<http://s> <http://p> "x\uD800" .`, 1, `\uD800 is not a Unicode scalar value`},
		{`<http://s> <http://p> "x\uDFFF\u0041" .`, 1, `\uDFFF is not a Unicode scalar value`},
		{`<http://s> <http://p> "x\UFFFFFFFF" .`, 1, `\UFFFFFFFF is not a Unicode scalar value`},
		{long, 1, "line longer than the 1048576-byte limit"},
		{"<a> <b> <c> .\n\n" + long + "\n<a> <b> <c> .", 3, "line longer than the 1048576-byte limit"},
	}
	for _, tt := range tests {
		r := NewReader(strings.NewReader(tt.src))
		var err error
		for err == nil {
			_, err = r.Next()
		}
		var pe *ParseError
		if !errorsAs(err, &pe) || pe.Line != tt.line || !strings.Contains(pe.Msg, tt.want) {
			t.Errorf("%.40q...: error %v, want a *ParseError at line %d containing %q", tt.src, err, tt.line, tt.want)
		}
	}
}

// Scalar values at the edges of the ranges are still accepted.
func TestParseEscapeScalarValues(t *testing.T) {
	got := parseAll(t, `<http://s> <http://p> "\uD7FF\uE000\U0010FFFF\u0000" .`)
	if want := "\uD7FF\uE000\U0010FFFF\x00"; len(got) != 1 || got[0].O.Value != want {
		t.Fatalf("got %+q, want %+q", got, want)
	}
}

// A blank-node label may hold dots, but not end with one: the dot that
// ends a statement is not part of the label before it.
func TestParseBlankLabelDots(t *testing.T) {
	tests := []struct {
		src  string
		s, o rdf.Term
	}{
		{`_:b.1 <http://p> <http://o> .`, rdf.NewBlank("b.1"), rdf.NewIRI("http://o")},
		{`<http://s> <http://p> _:b.1 .`, rdf.NewIRI("http://s"), rdf.NewBlank("b.1")},
		{`<http://s> <http://p> _:b1.`, rdf.NewIRI("http://s"), rdf.NewBlank("b1")},
		{`<http://s> <http://p> _:b1 .`, rdf.NewIRI("http://s"), rdf.NewBlank("b1")},
		{`_:a..b.c <http://p> _:x.y.`, rdf.NewBlank("a..b.c"), rdf.NewBlank("x.y")},
		{`<http://s> <http://p> _:b1.# comment`, rdf.NewIRI("http://s"), rdf.NewBlank("b1")},
		{`<http://s> <http://p> _:b.é .`, rdf.NewIRI("http://s"), rdf.NewBlank("b.é")},
	}
	for _, tt := range tests {
		got := parseAll(t, tt.src)
		if len(got) != 1 || got[0].S != tt.s || got[0].O != tt.o {
			t.Errorf("%s: got %v, want S %v, O %v", tt.src, got, tt.s, tt.o)
		}
	}
	for _, src := range []string{`<http://s> <http://p> _:b1..`, `_:b. <http://p> <http://o> .`} {
		if _, err := NewReader(strings.NewReader(src)).Next(); err == nil {
			t.Errorf("%s: parsed, want a *ParseError", src)
		}
	}
}

func errorsAs(err error, target **ParseError) bool {
	pe, ok := err.(*ParseError)
	if ok {
		*target = pe
	}
	return ok
}

func TestCommentAtLineEnd(t *testing.T) {
	got := parseAll(t, `<http://s> <http://p> <http://o> . # trailing comment`)
	if len(got) != 1 {
		t.Fatalf("got %d triples", len(got))
	}
}

func TestRoundTrip(t *testing.T) {
	triples := []rdf.Triple{
		{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewIRI("http://ex/o")},
		{S: rdf.NewBlank("n1"), P: rdf.NewIRI("http://ex/p"), O: rdf.NewLiteral("with \"quotes\" and \\slash\\ and\nnewline\ttab")},
		{S: rdf.NewIRI("http://ex/s"), P: rdf.NewIRI("http://ex/geo"), O: rdf.NewTypedLiteral("POINT(1 2)", rdf.WKTLiteral)},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, tr := range triples {
		if err := w.Write(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	got := parseAll(t, buf.String())
	if !reflect.DeepEqual(got, triples) {
		t.Errorf("round trip mismatch:\ngot  %v\nwant %v", got, triples)
	}
}

// Property: any literal string round-trips through write+parse.
func TestLiteralRoundTripProperty(t *testing.T) {
	f := func(s string) bool {
		if !isValidUTF8NoControl(s) {
			return true // writer contract covers text, not arbitrary bytes
		}
		tr := rdf.Triple{S: rdf.NewIRI("http://s"), P: rdf.NewIRI("http://p"), O: rdf.NewLiteral(s)}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.Write(tr); err != nil {
			return false
		}
		w.Flush()
		r := NewReader(&buf)
		got, err := r.Next()
		if err != nil {
			return false
		}
		return got.O.Value == s
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func isValidUTF8NoControl(s string) bool {
	for _, r := range s {
		if r == 0xFFFD || (r < 0x20 && r != '\n' && r != '\t' && r != '\r') {
			return false
		}
	}
	return true
}

func TestLoadIntoBuilder(t *testing.T) {
	src := `
<http://ex/Abbey> <http://ex/dedication> <http://ex/SaintPeter> .
<http://ex/Abbey> <http://ex/hasGeometry> "POINT(4.66 43.71)"^^<` + rdf.WKTLiteral + `> .
<http://ex/Abbey> <http://ex/sameAs> <http://ex/Copy> .
`
	b := rdf.NewBuilder()
	n, err := Load(strings.NewReader(src), b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // sameAs skipped
		t.Errorf("accepted = %d, want 2", n)
	}
	g := b.Build()
	if g.NumVertices() != 2 || len(g.Places()) != 1 {
		t.Errorf("graph has %d vertices, %d places", g.NumVertices(), len(g.Places()))
	}
}

// A geometry with a NaN or infinite coordinate is a malformed literal:
// its triple is skipped, and the only place left is the finite one.
func TestLoadSkipsNonFiniteGeometry(t *testing.T) {
	src := `
<http://ex/A> <http://ex/hasGeometry> "POINT(NaN 1)"^^<` + rdf.WKTLiteral + `> .
<http://ex/B> <http://ex/hasGeometry> "POINT(1 +Inf)"^^<` + rdf.WKTLiteral + `> .
<http://ex/C> <http://www.georss.org/georss/point> "NaN 2" .
<http://ex/D> <http://ex/hasGeometry> "POINT(-Inf 0)"^^<` + rdf.WKTLiteral + `> .
<http://ex/E> <http://ex/hasGeometry> "POINT(3 4)"^^<` + rdf.WKTLiteral + `> .
`
	b := rdf.NewBuilder()
	n, err := Load(strings.NewReader(src), b)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("accepted = %d, want 1", n)
	}
	g := b.Build()
	if places := g.Places(); len(places) != 1 || g.URI(places[0]) != "http://ex/E" || g.Loc(places[0]).X != 3 {
		t.Fatalf("places %v, want only http://ex/E at (3, 4)", places)
	}
}

func TestLoadPropagatesParseError(t *testing.T) {
	b := rdf.NewBuilder()
	if _, err := Load(strings.NewReader("garbage here\n"), b); err == nil {
		t.Fatal("expected error")
	}
}

func BenchmarkParse(b *testing.B) {
	line := `<http://dbpedia.org/resource/Montmajour_Abbey> <http://dbpedia.org/ontology/dedication> <http://dbpedia.org/resource/Saint_Peter> .` + "\n"
	src := strings.Repeat(line, 1000)
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(strings.NewReader(src))
		for {
			if _, err := r.Next(); err != nil {
				break
			}
		}
	}
}

// BenchmarkLoad measures the N-Triples open of a served dataset: Load and
// Build of a DBpedia-like graph's export (30 000 vertices, about 300 000
// triples, seven distinct predicates).
func BenchmarkLoad(b *testing.B) {
	var src bytes.Buffer
	if err := WriteGraph(gen.Generate(gen.DBpediaConfig(30000, 1)), &src); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(src.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb := rdf.NewBuilder()
		if _, err := Load(bytes.NewReader(src.Bytes()), rb); err != nil {
			b.Fatal(err)
		}
		rb.Build()
	}
}
