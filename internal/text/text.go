// Package text extracts keyword tokens from RDF identifiers and literals.
//
// Following the document-construction scheme of the paper (Section 2, after
// Le et al., TKDE 2014), each entity's document ψ is built from the words in
// its URI and literals, and the description of each predicate is added to
// the document of the triple's object entity. This package provides the
// tokenizer that turns URIs such as
// "http://dbpedia.org/resource/Montmajour_Abbey" or camel-cased predicate
// names such as "birthPlace" into lower-cased word sets.
package text

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Tokenize splits s into lower-cased word tokens. It understands URI
// structure (only the fragment/last path segment carries meaning),
// underscores, hyphens, punctuation, and camelCase boundaries.
func Tokenize(s string) []string {
	var tokens []string
	var scratch [64]byte
	z := tokenizer{s: localName(s)}
	for buf := scratch[:0]; ; {
		tok, ok := z.next(buf)
		if !ok {
			return tokens
		}
		tokens = append(tokens, string(tok))
		buf = tok
	}
}

// tokenizer yields the tokens of a local name one at a time: its runs
// of letters and digits, split at camelCase boundaries and lower-cased.
type tokenizer struct{ s string }

// next builds the next token in buf's storage, growing it as needed,
// and returns it; ok is false at the end. A caller that passes each
// token back as the next buf builds every token in one buffer, and pays
// for a string only for a token it keeps.
func (z *tokenizer) next(buf []byte) (tok []byte, ok bool) {
	tok = buf[:0]
	prevLower := false
	for len(z.s) > 0 {
		r, size := rune(z.s[0]), 1
		var letter, digit, upper, lower bool
		if r < utf8.RuneSelf {
			upper, lower = 'A' <= r && r <= 'Z', 'a' <= r && r <= 'z'
			letter, digit = upper || lower, '0' <= r && r <= '9'
		} else {
			r, size = utf8.DecodeRuneInString(z.s)
			letter, digit = unicode.IsLetter(r), unicode.IsDigit(r)
			upper, lower = unicode.IsUpper(r), unicode.IsLower(r)
		}
		switch {
		case letter:
			if prevLower && upper {
				return tok, true // camelCase boundary: birthPlace -> birth, place
			}
			tok = utf8.AppendRune(tok, unicode.ToLower(r))
			prevLower = lower
		case digit:
			tok = utf8.AppendRune(tok, r)
			prevLower = false
		case len(tok) > 0:
			z.s = z.s[size:]
			return tok, true
		}
		z.s = z.s[size:]
	}
	return tok, len(tok) > 0
}

// TokenizeSet is Tokenize with duplicates removed, preserving first
// occurrence order.
func TokenizeSet(s string) []string {
	toks := Tokenize(s)
	seen := make(map[string]struct{}, len(toks))
	out := toks[:0]
	for _, t := range toks {
		if _, ok := seen[t]; ok {
			continue
		}
		seen[t] = struct{}{}
		out = append(out, t)
	}
	return out
}

// localName strips URI scaffolding: for a URI it returns the fragment if
// present, otherwise the last path segment. CURIE-style prefixes
// ("rdf:type", "Category:Foo") are stripped as well — the paper's example
// documents (Figure 1(b)) carry no namespace tokens.
func localName(s string) string {
	if strings.Contains(s, "://") {
		if i := strings.LastIndexByte(s, '#'); i >= 0 && i+1 < len(s) {
			s = s[i+1:]
		} else if i := strings.LastIndexByte(s, '/'); i >= 0 && i+1 < len(s) {
			s = s[i+1:]
		}
	}
	if i := strings.LastIndexByte(s, ':'); i > 0 && i+1 < len(s) && isAlphaPrefix(s[:i]) {
		s = s[i+1:]
	}
	return s
}

func isAlphaPrefix(s string) bool {
	for _, r := range s {
		if !unicode.IsLetter(r) {
			return false
		}
	}
	return len(s) > 0
}

// Table is a flat, immutable table of strings: string i is
// Blob[Off[i]:Off[i+1]]. Sorted, when the table is searched, lists the
// indexes in ascending byte order of their strings, so Find is a binary
// search over the blob with no map and no per-string header. A table of
// n strings has n+1 offsets, the first 0 and the last len(Blob).
type Table struct {
	Blob   []byte
	Off    []uint32
	Sorted []uint32
}

// Len returns the number of strings.
func (t *Table) Len() int { return max(len(t.Off)-1, 0) }

// Bytes returns string i as a slice of the blob.
func (t *Table) Bytes(i uint32) []byte { return t.Blob[t.Off[i]:t.Off[i+1]] }

// String returns a copy of string i.
func (t *Table) String(i uint32) string { return string(t.Bytes(i)) }

// Find returns the index of s; ok is false when the table does not hold
// it. It does not allocate.
func (t *Table) Find(s string) (uint32, bool) {
	lo, hi := 0, len(t.Sorted)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if string(t.Bytes(t.Sorted[mid])) < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(t.Sorted) && string(t.Bytes(t.Sorted[lo])) == s {
		return t.Sorted[lo], true
	}
	return 0, false
}

// Append adds s as the next string and returns its index. The table
// must start with the one offset 0. It panics when the blob would
// outgrow what uint32 offsets address.
func (t *Table) Append(s string) uint32 {
	if int64(len(t.Blob))+int64(len(s)) > math.MaxUint32 {
		panic("text: string table exceeds 4 GiB; uint32 offsets cannot address it")
	}
	t.Blob = append(t.Blob, s...)
	t.Off = append(t.Off, uint32(len(t.Blob)))
	return uint32(t.Len() - 1)
}

// Sort fills Sorted for Find.
func (t *Table) Sort() {
	t.Sorted = make([]uint32, t.Len())
	for i := range t.Sorted {
		t.Sorted[i] = uint32(i)
	}
	slices.SortFunc(t.Sorted, func(a, b uint32) int { return bytes.Compare(t.Bytes(a), t.Bytes(b)) })
}

// Check reports whether t is a table Append and Sort can have made:
// offsets from 0 to len(Blob) that never descend and, when sorted is
// set, a Sorted of Len indexes whose strings strictly ascend — which
// makes it a permutation, since equal indexes would be equal strings.
func (t *Table) Check(sorted bool) error {
	if len(t.Off) == 0 || t.Off[0] != 0 || int64(t.Off[len(t.Off)-1]) != int64(len(t.Blob)) {
		return errors.New("offsets do not span the blob")
	}
	for i := 1; i < len(t.Off); i++ {
		if t.Off[i] < t.Off[i-1] {
			return errors.New("offsets descend")
		}
	}
	if !sorted {
		return nil
	}
	if len(t.Sorted) != t.Len() {
		return fmt.Errorf("%d sorted indexes for %d strings", len(t.Sorted), t.Len())
	}
	for i, s := range t.Sorted {
		if int(s) >= t.Len() {
			return fmt.Errorf("sorted index %d out of range", s)
		}
		if i > 0 && bytes.Compare(t.Bytes(t.Sorted[i-1]), t.Bytes(s)) >= 0 {
			return errors.New("sorted strings do not strictly ascend")
		}
	}
	return nil
}

// Vocabulary maps terms to dense uint32 IDs. It is the shared dictionary
// used by the graph documents, the inverted index and the α-radius word
// neighbourhoods, so the rest of the system works with integer term IDs.
// The terms are a Table. While a Builder fills it, an interning map
// assigns the IDs; Freeze sorts the table and drops the map, and from
// then on Lookup is a binary search — the form every Graph holds, and the
// one a snapshot stores.
type Vocabulary struct {
	terms Table
	ids   map[string]uint32 // nil once frozen
}

// NewVocabulary returns an empty dictionary.
func NewVocabulary() *Vocabulary {
	return &Vocabulary{terms: Table{Off: []uint32{0}}, ids: make(map[string]uint32)}
}

// FrozenVocabulary returns the frozen dictionary whose terms are t,
// which must be sorted (Table.Check).
func FrozenVocabulary(t Table) *Vocabulary { return &Vocabulary{terms: t} }

// ID interns term and returns its dense ID. It panics on a frozen
// dictionary.
func (v *Vocabulary) ID(term string) uint32 {
	if id, ok := v.ids[term]; ok {
		return id
	}
	if v.ids == nil {
		panic("text: ID on a frozen vocabulary")
	}
	id := v.terms.Append(term)
	v.ids[term] = id
	return id
}

// IDBytes is ID for a term held in a byte slice: it converts the term
// to a string only when the term is new.
func (v *Vocabulary) IDBytes(term []byte) uint32 {
	if id, ok := v.ids[string(term)]; ok {
		return id
	}
	return v.ID(string(term))
}

// Freeze sorts the terms for Lookup, trims the table to its length and
// releases the interning map; the dictionary is read-only afterwards.
// Freezing twice is a no-op.
func (v *Vocabulary) Freeze() {
	if v.ids != nil {
		v.terms.Blob, v.terms.Off = slices.Clone(v.terms.Blob), slices.Clone(v.terms.Off)
		v.terms.Sort()
		v.ids = nil
	}
}

// Table returns the terms, as Freeze left them.
func (v *Vocabulary) Table() Table { return v.terms }

// Lookup returns the ID for term without interning; ok is false when the
// term is unknown.
func (v *Vocabulary) Lookup(term string) (uint32, bool) {
	if v.ids != nil {
		id, ok := v.ids[term]
		return id, ok
	}
	return v.terms.Find(term)
}

// Term returns a copy of the string for a term ID. It panics on
// out-of-range IDs, which always indicates a bug (IDs only come from this
// dictionary).
func (v *Vocabulary) Term(id uint32) string { return v.terms.String(id) }

// Len returns the number of distinct terms.
func (v *Vocabulary) Len() int { return v.terms.Len() }
