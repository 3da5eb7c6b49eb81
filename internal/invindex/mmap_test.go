package invindex

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ksp/internal/mmapfile"
)

// openView writes ix with Write to a file and serves it back the way a
// disk-resident snapshot serves its α sections: mmapfile.OpenMode, then
// Scan, then NewView. The file closes when the test ends.
func openView(t testing.TB, ix Index, useMmap bool) *DiskIndex {
	t.Helper()
	var enc bytes.Buffer
	if err := Write(&enc, ix); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "ix.bin")
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := mmapfile.OpenMode(path, useMmap)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	if !useMmap && src.Mapped() {
		t.Fatal("pread file reports mapped")
	}
	offsets, err := Scan(io.NewSectionReader(src, 0, src.Size()))
	if err != nil {
		t.Fatal(err)
	}
	return NewView(src, 0, offsets)
}

func randomMem(t testing.TB, seed int64, n int) *MemIndex {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	b.Reserve(150) // leave some trailing empty terms
	for i := 0; i < n; i++ {
		b.Add(uint32(rng.Intn(120)), uint32(rng.Intn(50000)), uint8(rng.Intn(6)))
	}
	return b.Build()
}

// The three I/O representations — in-memory, pread, mmap — must agree
// posting-for-posting on every term.
func TestMmapMatchesPreadAndMem(t *testing.T) {
	mem := randomMem(t, 11, 8000)
	pread, mapped := openView(t, mem, false), openView(t, mem, true)
	if mapped.NumTerms() != mem.NumTerms() || pread.NumTerms() != mem.NumTerms() {
		t.Fatalf("NumTerms: mem %d pread %d mmap %d", mem.NumTerms(), pread.NumTerms(), mapped.NumTerms())
	}
	for term := 0; term < mem.NumTerms(); term++ {
		want, _ := mem.Postings(uint32(term), nil)
		a, err := pread.Postings(uint32(term), nil)
		if err != nil {
			t.Fatalf("pread term %d: %v", term, err)
		}
		b, err := mapped.Postings(uint32(term), nil)
		if err != nil {
			t.Fatalf("mmap term %d: %v", term, err)
		}
		if !reflect.DeepEqual(a, want) || !reflect.DeepEqual(b, want) {
			t.Fatalf("term %d: mem %v pread %v mmap %v", term, want, a, b)
		}
	}
	if mapped.NumPostings() != mem.NumPostings() {
		t.Fatalf("NumPostings: mmap %d mem %d", mapped.NumPostings(), mem.NumPostings())
	}
}

// NonEmptyTerms must agree across representations and keep
// AvgPostingLen exact — the offset-table shortcut (encoded length > 1)
// must count precisely the terms with postings.
func TestNonEmptyTerms(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		mem := randomMem(t, seed, 500)
		disk := openView(t, mem, seed%2 == 0)
		var want int64
		var buf []Posting
		for term := 0; term < mem.NumTerms(); term++ {
			buf, _ = mem.Postings(uint32(term), buf[:0])
			if len(buf) > 0 {
				want++
			}
		}
		if got := mem.NonEmptyTerms(); got != want {
			t.Errorf("seed %d: mem NonEmptyTerms = %d, want %d", seed, got, want)
		}
		if got := disk.NonEmptyTerms(); got != want {
			t.Errorf("seed %d: disk NonEmptyTerms = %d, want %d", seed, got, want)
		}
		if a, b := AvgPostingLen(disk), AvgPostingLen(mem); a != b {
			t.Errorf("seed %d: AvgPostingLen disk %v mem %v", seed, a, b)
		}
	}
}

// Scan + NewView: an index embedded mid-file must serve identical
// postings to the standalone representations, and Scan must consume
// exactly the encoding so trailing bytes stay readable.
func TestScanAndView(t *testing.T) {
	mem := randomMem(t, 21, 3000)
	var enc bytes.Buffer
	if err := Write(&enc, mem); err != nil {
		t.Fatal(err)
	}
	prefix := []byte("0123456789abcdef")
	suffix := []byte("TRAILER")
	blob := append(append(append([]byte(nil), prefix...), enc.Bytes()...), suffix...)
	path := filepath.Join(t.TempDir(), "embedded.bin")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, useMmap := range []bool{false, true} {
		src, err := mmapfile.OpenMode(path, useMmap)
		if err != nil {
			t.Fatal(err)
		}
		r := bytes.NewReader(blob[len(prefix):])
		offsets, err := Scan(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := enc.Len(); EncodedSize(offsets) != int64(got) {
			t.Fatalf("EncodedSize = %d, want %d", EncodedSize(offsets), got)
		}
		if rest := r.Len(); rest != len(suffix) {
			t.Fatalf("Scan left %d bytes, want %d", rest, len(suffix))
		}
		view := NewView(src, int64(len(prefix)), offsets)
		for term := 0; term < mem.NumTerms(); term++ {
			want, _ := mem.Postings(uint32(term), nil)
			got, err := view.Postings(uint32(term), nil)
			if err != nil {
				t.Fatalf("term %d: %v", term, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("term %d: view %v mem %v", term, got, want)
			}
		}
		if view.NumPostings() != mem.NumPostings() {
			t.Fatalf("view NumPostings = %d, want %d", view.NumPostings(), mem.NumPostings())
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Write goes through Postings, so every representation serializes to the
// same bytes; ReadFrom serves the encoding it read without a file, and is
// — like every DiskIndex — what OnDisk says is not held ready in memory.
func TestWriteAnyRepresentation(t *testing.T) {
	mem := randomMem(t, 31, 2000)
	var want bytes.Buffer
	if err := Write(&want, mem); err != nil {
		t.Fatal(err)
	}
	disk := openView(t, mem, false)
	read, err := ReadFrom(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for name, ix := range map[string]Index{"disk": disk, "read from a stream": read} {
		var got bytes.Buffer
		if err := Write(&got, ix); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("%s: Write gave %d bytes that differ from the in-memory index's %d", name, got.Len(), want.Len())
		}
		if !OnDisk(ix) {
			t.Errorf("%s: OnDisk = false", name)
		}
	}
	if OnDisk(mem) {
		t.Error("OnDisk(MemIndex) = true")
	}
}
