package rdf

import (
	"bufio"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ksp/internal/mmapfile"
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

// countedHeader stands in for the snapshot sections before the
// documents, so the region starts at a nonzero base.
var countedHeader = []byte("HEADERBYTES")

// writeCounted writes g's documents in the counted per-vertex layout (the
// snapshot documents section) after countedHeader, and returns the file
// and the per-vertex lengths.
func writeCounted(t *testing.T, g *Graph) (string, []uint32) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "docs.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	bw := bufio.NewWriter(f)
	bw.Write(countedHeader)
	lengths := make([]uint32, g.NumVertices())
	var u32 [4]byte
	for v := range lengths {
		doc := g.Doc(uint32(v))
		lengths[v] = uint32(len(doc))
		binary.LittleEndian.PutUint32(u32[:], uint32(len(doc)))
		bw.Write(u32[:])
		for _, term := range doc {
			binary.LittleEndian.PutUint32(u32[:], term)
			bw.Write(u32[:])
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, lengths
}

// attachCounted attaches the documents writeCounted wrote to g, read
// through pread or a mapping; the file closes when the test ends.
func attachCounted(t *testing.T, g *Graph, path string, lengths []uint32, useMmap bool) *mmapfile.File {
	t.Helper()
	src, err := mmapfile.OpenMode(path, useMmap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	if err := g.AttachExternalDocs(lengths, src, int64(len(countedHeader))); err != nil {
		t.Fatal(err)
	}
	return src
}

// AttachExternalDocs serves the counted per-vertex layout (the snapshot
// documents section) from a shared file, in pread and mmap mode alike:
// every document reads back as it was built, each call a fresh decode;
// and the lengths must cover every vertex.
func TestAttachExternalDocs(t *testing.T) {
	ref, want := docFixture()
	path, lengths := writeCounted(t, ref)
	for _, useMmap := range []bool{false, true} {
		g, _ := docFixture()
		src := attachCounted(t, g, path, lengths, useMmap)
		if !g.DocsOnDisk() || !useMmap && src.Mapped() {
			t.Fatalf("mmap=%v: DocsOnDisk %v, mapped %v", useMmap, g.DocsOnDisk(), src.Mapped())
		}
		// Every document is kept until all are read: a decode must not
		// reuse the memory of the one before.
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
	if err := ref.AttachExternalDocs(lengths[1:], nil, 0); err == nil {
		t.Fatal("attaching one length short succeeded")
	}
}

// Attached documents read through pread match the built ones on every
// pass, and HasTerm finds each of their terms and no absent one.
func TestSpillDocsRoundTrip(t *testing.T) {
	ref, want := docFixture()
	path, lengths := writeCounted(t, ref)
	g, _ := docFixture()
	attachCounted(t, g, path, lengths, false)
	if !g.DocsOnDisk() {
		t.Fatal("DocsOnDisk should be true")
	}
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

// The same documents section attached through a mapping serves the same
// documents as through pread.
func TestSpillDocsMmapMatchesPread(t *testing.T) {
	ref, _ := docFixture()
	path, lengths := writeCounted(t, ref)
	pread, mapped := ref, func() *Graph { g, _ := docFixture(); return g }()
	if src := attachCounted(t, pread, path, lengths, false); src.Mapped() {
		t.Fatal("pread source is mapped")
	}
	attachCounted(t, mapped, path, lengths, true)
	for v := uint32(0); int(v) < pread.NumVertices(); v++ {
		a := append([]uint32(nil), pread.Doc(v)...)
		b := append([]uint32(nil), mapped.Doc(v)...)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Doc(%d): pread %v mmap %v", v, a, b)
		}
	}
}

// Documents attach once: a second attach fails, in either mode, and
// leaves the first one serving.
func TestSpillDocsTwiceFails(t *testing.T) {
	ref, want := docFixture()
	path, lengths := writeCounted(t, ref)
	for _, useMmap := range []bool{false, true} {
		g, _ := docFixture()
		src := attachCounted(t, g, path, lengths, useMmap)
		if err := g.AttachExternalDocs(lengths, src, 0); err == nil {
			t.Fatalf("mmap=%v: attaching twice succeeded", useMmap)
		}
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			if got := g.Doc(v); !reflect.DeepEqual(append([]uint32(nil), got...), want[v]) {
				t.Fatalf("mmap=%v: after the second attach Doc(%d) = %v, want %v", useMmap, v, got, want[v])
			}
		}
	}
}

// An empty document stays empty when attached, next to a full one, in
// either mode.
func TestSpillEmptyDocs(t *testing.T) {
	build := func() *Graph {
		b := NewBuilder()
		b.AddBareVertex("empty")
		v2 := b.AddBareVertex("full")
		b.AddTermID(v2, b.Vocab.ID("x"))
		return b.Build()
	}
	path, lengths := writeCounted(t, build())
	for _, useMmap := range []bool{false, true} {
		g := build()
		attachCounted(t, g, path, lengths, useMmap)
		if len(g.Doc(0)) != 0 {
			t.Errorf("mmap=%v: empty doc should stay empty", useMmap)
		}
		if len(g.Doc(1)) != 1 {
			t.Errorf("mmap=%v: doc lost", useMmap)
		}
	}
}

// Eight concurrent readers must each see every document intact (run under
// -race for the memory-model check).
func TestAttachExternalDocsConcurrent(t *testing.T) {
	ref, want := docFixture()
	path, lengths := writeCounted(t, ref)
	for _, useMmap := range []bool{false, true} {
		g, _ := docFixture()
		attachCounted(t, g, path, lengths, useMmap)
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(seed int) {
				defer wg.Done()
				for i := 0; i < 500; i++ {
					v := uint32((i*7 + seed*13) % g.NumVertices())
					if got := g.Doc(v); !reflect.DeepEqual(append([]uint32(nil), got...), want[v]) {
						errs <- "document mismatch"
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("mmap=%v: %s", useMmap, e)
		}
	}
}
