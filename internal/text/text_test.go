package text

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unicode"
)

func TestTokenize(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"Montmajour_Abbey", []string{"montmajour", "abbey"}},
		{"birthPlace", []string{"birth", "place"}},
		{"deathPlace", []string{"death", "place"}},
		{"http://dbpedia.org/resource/Montmajour_Abbey", []string{"montmajour", "abbey"}},
		{"http://dbpedia.org/ontology/birthPlace", []string{"birth", "place"}},
		{"http://example.org/x#Roman_Empire", []string{"roman", "empire"}},
		{"Category:Romanesque_architecture", []string{"romanesque", "architecture"}},
		{"rdf:type", []string{"type"}},
		{"http://dbpedia.org/resource/Category:Architectural_history", []string{"architectural", "history"}},
		{"12:30", []string{"12", "30"}}, // numeric prefix is not a CURIE
		{"Saint Peter", []string{"saint", "peter"}},
		{"", nil},
		{"___", nil},
		{"HTTPServer", []string{"httpserver"}}, // run of capitals stays one token
		{"a1b2", []string{"a1b2"}},
		{"Fréjus-Toulon", []string{"fréjus", "toulon"}},
	}
	for _, tt := range tests {
		if got := Tokenize(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestTokenizeSet(t *testing.T) {
	got := TokenizeSet("roman Roman ROMAN empire")
	want := []string{"roman", "empire"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("TokenizeSet = %v, want %v", got, want)
	}
}

func TestTokenizeAllLower(t *testing.T) {
	f := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok == "" {
				return false
			}
			for _, r := range tok {
				if r >= 'A' && r <= 'Z' {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary()
	a := v.ID("ancient")
	r := v.ID("roman")
	if a == r {
		t.Fatal("distinct terms must get distinct IDs")
	}
	if v.ID("ancient") != a {
		t.Error("ID must be stable")
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
	if v.Term(a) != "ancient" || v.Term(r) != "roman" {
		t.Error("Term round-trip failed")
	}
	if id, ok := v.Lookup("roman"); !ok || id != r {
		t.Error("Lookup failed for known term")
	}
	if _, ok := v.Lookup("nope"); ok {
		t.Error("Lookup should fail for unknown term")
	}
}

func TestVocabularyDenseIDs(t *testing.T) {
	v := NewVocabulary()
	terms := []string{"a", "b", "c", "d"}
	for i, s := range terms {
		if got := v.ID(s); got != uint32(i) {
			t.Errorf("ID(%q) = %d, want %d", s, got, i)
		}
	}
}

// A frozen vocabulary answers as the interning one did, through a binary
// search over its sorted table that allocates nothing, and refuses to
// intern.
func TestVocabularyFreeze(t *testing.T) {
	v := NewVocabulary()
	words := []string{"roman", "ancient", "", "abbey", "ab", "zz", "roman2"}
	for _, w := range words {
		v.ID(w)
	}
	v.Freeze()
	v.Freeze()
	for _, u := range []*Vocabulary{v, FrozenVocabulary(v.Table())} {
		if u.Len() != len(words) {
			t.Fatalf("Len = %d, want %d", u.Len(), len(words))
		}
		for i, w := range words {
			if id, ok := u.Lookup(w); !ok || id != uint32(i) || u.Term(id) != w {
				t.Fatalf("Lookup(%q) = %d, %v; want %d", w, id, ok, i)
			}
		}
		for _, w := range []string{"a", "abc", "roman1", "zzz", "\xff"} {
			if id, ok := u.Lookup(w); ok {
				t.Fatalf("Lookup(%q) = %d, want a miss", w, id)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { v.Lookup("roman2"); v.Lookup("absent") }); n != 0 {
		t.Errorf("Lookup on a frozen vocabulary allocates %v times", n)
	}
	defer func() {
		if recover() == nil {
			t.Error("ID on a frozen vocabulary did not panic")
		}
	}()
	v.ID("new")
}

// Check accepts exactly the tables Append and Sort make.
func TestTableCheck(t *testing.T) {
	good := func() *Table {
		tb := &Table{Off: []uint32{0}}
		for _, s := range []string{"b", "", "ca", "a"} {
			tb.Append(s)
		}
		tb.Sort()
		return tb
	}
	if err := good().Check(true); err != nil {
		t.Fatal(err)
	}
	if err := (&Table{Off: []uint32{0}}).Check(true); err != nil {
		t.Fatalf("empty table: %v", err)
	}
	for name, hurt := range map[string]func(*Table){
		"no offsets":              func(tb *Table) { tb.Off = nil },
		"a first offset past 0":   func(tb *Table) { tb.Off[0] = 1 },
		"descending offsets":      func(tb *Table) { tb.Off[2], tb.Off[3] = tb.Off[3], tb.Off[2] },
		"a last offset short":     func(tb *Table) { tb.Off[4]-- },
		"a sorted index repeated": func(tb *Table) { tb.Sorted[1] = tb.Sorted[0] },
		"a sorted index too far":  func(tb *Table) { tb.Sorted[3] = 4 },
		"sorted out of order":     func(tb *Table) { tb.Sorted[0], tb.Sorted[1] = tb.Sorted[1], tb.Sorted[0] },
		"a sorted index missing":  func(tb *Table) { tb.Sorted = tb.Sorted[:3] },
	} {
		tb := good()
		hurt(tb)
		if err := tb.Check(true); err == nil {
			t.Errorf("%s: Check accepted %+v", name, tb)
		}
	}
}

// referenceTokenize is Tokenize as it was before tokens were built in a
// reused byte buffer: one strings.Builder and one strings.ToLower per
// token. The buffer scanner must split and lower-case exactly as it did.
func referenceTokenize(s string) []string {
	s = localName(s)
	var tokens []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			tokens = append(tokens, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	prevLower := false
	for _, r := range s {
		switch {
		case unicode.IsLetter(r):
			if prevLower && unicode.IsUpper(r) {
				flush()
			}
			cur.WriteRune(r)
			prevLower = unicode.IsLower(r)
		case unicode.IsDigit(r):
			cur.WriteRune(r)
			prevLower = false
		default:
			flush()
			prevLower = false
		}
	}
	flush()
	return tokens
}

var tokenizeSeeds = []string{
	"", "birthPlace", "HTTPServer", "a1b2", "Fréjus-Toulon", "ǅemal ǄAB", "İstanbul",
	"ΣΊΣΥΦΟΣ σίσυφος", "x\xffy", "�a", "Ⅻ roman ⅻ", "١٢٣abc", "ﬁne ﬀ", "aΣb",
	"http://dbpedia.org/resource/Category:Architectural_history", "12:30", "ß STRASSE",
}

func TestTokenizeMatchesReference(t *testing.T) {
	check := func(s string) bool { return reflect.DeepEqual(Tokenize(s), referenceTokenize(s)) }
	for _, s := range tokenizeSeeds {
		if !check(s) {
			t.Errorf("Tokenize(%q) = %q, reference %q", s, Tokenize(s), referenceTokenize(s))
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func FuzzTokenize(f *testing.F) {
	for _, s := range tokenizeSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if got, want := Tokenize(s), referenceTokenize(s); !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
		}
	})
}

// Terms yields what Analyze returns, in order, before Analyze drops the
// repeats, under every analyzer; and it reuses the buffer it is given.
func TestTermsMatchesAnalyze(t *testing.T) {
	const s = "The running Runners ran; the RUNNING of the abbey's runs"
	for _, a := range []Analyzer{{}, {RemoveStopwords: true}, {Stemming: true}, {RemoveStopwords: true, Stemming: true}} {
		var terms []string
		buf := a.Terms(make([]byte, 0, 64), s, func(term []byte) { terms = append(terms, string(term)) })
		if cap(buf) != 64 {
			t.Errorf("%+v: Terms returned a buffer of capacity %d, want the one given", a, cap(buf))
		}
		var dedup []string
		for _, term := range terms {
			if !slices.Contains(dedup, term) {
				dedup = append(dedup, term)
			}
		}
		if got := a.Analyze(s); !reflect.DeepEqual(got, dedup) {
			t.Errorf("%+v: Analyze = %q, Terms deduplicated = %q", a, got, dedup)
		}
		if len(terms) == len(dedup) {
			t.Errorf("%+v: Terms %q dropped the repeats", a, terms)
		}
	}
	buf := make([]byte, 0, 64)
	if n := testing.AllocsPerRun(100, func() { buf = Analyzer{}.Terms(buf, s, func([]byte) {}) }); n != 0 {
		t.Errorf("Terms without stemming allocates %v times", n)
	}
}

// IDBytes interns as ID does and allocates nothing for a known term.
func TestVocabularyIDBytes(t *testing.T) {
	v := NewVocabulary()
	a := v.IDBytes([]byte("ancient"))
	if v.ID("ancient") != a || v.IDBytes([]byte("roman")) != a+1 || v.Term(a+1) != "roman" {
		t.Fatal("IDBytes disagrees with ID")
	}
	term := []byte("roman")
	if n := testing.AllocsPerRun(100, func() { v.IDBytes(term) }); n != 0 {
		t.Errorf("IDBytes of a known term allocates %v times", n)
	}
}
