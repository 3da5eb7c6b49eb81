package rdf

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ksp/internal/mmapfile"
	"ksp/internal/view"
)

// docFixture is a graph of 60 vertices whose documents hold 0 to 3
// terms, every fourth one empty, and those documents as the test expects
// them.
func docFixture() (*Graph, [][]uint32) {
	b := NewBuilder()
	var want [][]uint32
	for i := 0; i < 60; i++ {
		v := b.AddBareVertex(string(rune('a'+i%26)) + string(rune('0'+i/26)))
		var doc []uint32
		for j := 0; j < i%4; j++ {
			term := b.Vocab.ID(string(rune('a' + (i+j)%26)))
			b.AddTermID(v, term)
			doc = append(doc, term)
		}
		want = append(want, dedupeSorted(doc))
	}
	return b.Build(), want
}

func dedupeSorted(d []uint32) []uint32 {
	out := append([]uint32(nil), d...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1] > out[j]; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	k := 0
	for i, t := range out {
		if i > 0 && t == out[i-1] {
			continue
		}
		out[k] = t
		k++
	}
	return out[:k]
}

// docHeader stands in for the snapshot sections before the documents,
// so the arrays start at a nonzero, 8-byte aligned offset.
var docHeader = []byte("HEADER..")

// docImage locates the two document arrays in the file writeDocs wrote.
type docImage struct {
	path                 string
	offAt, offN, termsAt int64
	termsN               int64
}

// writeDocs writes g's document arrays (offsets, then terms, each
// starting 8-byte aligned) after docHeader, as the snapshot documents
// section lays them out.
func writeDocs(t *testing.T, g *Graph) docImage {
	t.Helper()
	a := g.Arrays()
	off, err := view.Bytes(a.DocOff)
	if err != nil {
		t.Fatal(err)
	}
	terms, err := view.Bytes(a.DocTerms)
	if err != nil {
		t.Fatal(err)
	}
	img := append([]byte(nil), docHeader...)
	im := docImage{path: filepath.Join(t.TempDir(), "docs.bin"), offAt: int64(len(img)), offN: int64(len(off))}
	img = append(img, off...)
	for len(img)%8 != 0 {
		img = append(img, 0)
	}
	im.termsAt, im.termsN = int64(len(img)), int64(len(terms))
	img = append(img, terms...)
	if err := os.WriteFile(im.path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return im
}

// readDocs returns the document arrays of im as views of its bytes:
// of the mapping when useMmap, else of one aligned heap buffer the file
// was read into. A mapped file closes when the test ends.
func readDocs(t *testing.T, im docImage, useMmap bool) (docOff, docTerms []uint32) {
	t.Helper()
	var b []byte
	if useMmap {
		src, err := mmapfile.Open(im.path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { src.Close() })
		if b, err = src.Range(0, src.Size()); err != nil {
			t.Fatal(err)
		}
	} else {
		raw, err := os.ReadFile(im.path)
		if err != nil {
			t.Fatal(err)
		}
		b = view.Alloc(len(raw))
		copy(b, raw)
	}
	var err error
	if docOff, err = view.Of[uint32](b[im.offAt : im.offAt+im.offN]); err != nil {
		t.Fatal(err)
	}
	if docTerms, err = view.Of[uint32](b[im.termsAt : im.termsAt+im.termsN]); err != nil {
		t.Fatal(err)
	}
	return docOff, docTerms
}

// docsFromFile returns g with its documents replaced by views of the
// arrays writeDocs wrote, read onto the heap or mapped.
func docsFromFile(t *testing.T, g *Graph, im docImage, useMmap bool) *Graph {
	t.Helper()
	a := g.Arrays()
	a.DocOff, a.DocTerms = readDocs(t, im, useMmap)
	out, err := FromArrays(a, g.Analyzer())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// A graph serves its documents from the document arrays of a file, read
// into one heap buffer or mapped in place: every document reads back as
// it was built, and each stays intact while the others are read. The
// offsets must cover every vertex.
func TestAttachExternalDocs(t *testing.T) {
	ref, want := docFixture()
	im := writeDocs(t, ref)
	for _, useMmap := range []bool{false, true} {
		g := docsFromFile(t, ref, im, useMmap)
		// Every document is kept until all are read: one must not share
		// memory with another's.
		docs := make([][]uint32, g.NumVertices())
		for v := range docs {
			docs[v] = g.Doc(uint32(v))
		}
		for v, got := range docs {
			if !reflect.DeepEqual(append([]uint32(nil), got...), want[v]) {
				t.Fatalf("mmap=%v: Doc(%d) = %v, want %v", useMmap, v, got, want[v])
			}
		}
	}
	a := ref.Arrays()
	a.DocOff = a.DocOff[1:]
	if _, err := FromArrays(a, ref.Analyzer()); err == nil {
		t.Fatal("document offsets one short were accepted")
	}
}

// Documents read from the file onto the heap match the built ones on
// every pass, and HasTerm finds each of their terms and no absent one.
func TestSpillDocsRoundTrip(t *testing.T) {
	ref, want := docFixture()
	im := writeDocs(t, ref)
	g := docsFromFile(t, ref, im, false)
	for pass := 0; pass < 2; pass++ {
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			if got := g.Doc(v); !reflect.DeepEqual(append([]uint32(nil), got...), want[v]) {
				t.Fatalf("pass %d: Doc(%d) = %v, want %v", pass, v, got, want[v])
			}
		}
	}
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		for _, term := range want[v] {
			if !g.HasTerm(v, term) {
				t.Fatalf("HasTerm(%d, %d) = false", v, term)
			}
		}
		if g.HasTerm(v, 1<<30) {
			t.Fatal("HasTerm hit for absent term")
		}
	}
}

// The same document arrays viewed through a mapping serve the same
// documents as read onto the heap.
func TestSpillDocsMmapMatchesPread(t *testing.T) {
	ref, _ := docFixture()
	im := writeDocs(t, ref)
	heap := docsFromFile(t, ref, im, false)
	viaMmap := docsFromFile(t, ref, im, true)
	for v := uint32(0); int(v) < heap.NumVertices(); v++ {
		a := append([]uint32(nil), heap.Doc(v)...)
		b := append([]uint32(nil), viaMmap.Doc(v)...)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Doc(%d): heap %v mmap %v", v, a, b)
		}
	}
}

// An empty document stays empty when read from the file, next to a full
// one, in either mode; so do the documents of a graph whose documents
// are all empty (an empty term array).
func TestSpillEmptyDocs(t *testing.T) {
	build := func(withTerm bool) *Graph {
		b := NewBuilder()
		b.AddBareVertex("empty")
		v2 := b.AddBareVertex("full")
		if withTerm {
			b.AddTermID(v2, b.Vocab.ID("x"))
		}
		return b.Build()
	}
	for _, useMmap := range []bool{false, true} {
		ref := build(true)
		g := docsFromFile(t, ref, writeDocs(t, ref), useMmap)
		if len(g.Doc(0)) != 0 {
			t.Errorf("mmap=%v: empty doc should stay empty", useMmap)
		}
		if len(g.Doc(1)) != 1 {
			t.Errorf("mmap=%v: doc lost", useMmap)
		}
		ref = build(false)
		g = docsFromFile(t, ref, writeDocs(t, ref), useMmap)
		if len(g.Doc(0)) != 0 || len(g.Doc(1)) != 0 {
			t.Errorf("mmap=%v: all-empty documents read back non-empty", useMmap)
		}
	}
}
