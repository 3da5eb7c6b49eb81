package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ksp/internal/core"
	"ksp/internal/gen"
	"ksp/internal/invindex"
	"ksp/internal/paperdata"
	"ksp/internal/rdf"
)

// fixtureSnapshot is a small but fully featured snapshot (graph + α
// index) for corruption testing.
func fixtureSnapshot(t testing.TB) *Snapshot {
	t.Helper()
	g := gen.Generate(gen.DBpediaConfig(200, 5))
	e := core.NewEngine(g, rdf.Outgoing)
	e.EnableAlpha(2)
	return &Snapshot{
		Graph:       g,
		AlphaRadius: 2,
		Dir:         rdf.Outgoing,
		AlphaPlace:  e.Alpha.PlaceIdx,
		AlphaNode:   e.Alpha.NodeIdx,
	}
}

func encode(t testing.TB, s *Snapshot, version uint32) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeVersion(&buf, s, version); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Version-1 snapshots predate the CRC trailers; they must keep loading.
func TestReadVersion1Compat(t *testing.T) {
	s := fixtureSnapshot(t)
	raw := encode(t, s, 1)
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("v1 snapshot failed to load: %v", err)
	}
	if got.Graph.NumVertices() != s.Graph.NumVertices() || got.AlphaRadius != 2 {
		t.Fatalf("v1 snapshot decoded wrong: %d vertices, α=%d",
			got.Graph.NumVertices(), got.AlphaRadius)
	}
}

// Any flipped bit in a v2 snapshot must surface as ErrCorrupt (or, for
// flips inside length prefixes, at worst another error — never a
// silently different dataset). Flips in the 8 header bytes are excluded:
// they legitimately report bad magic / unsupported version instead.
func TestReadDetectsBitFlips(t *testing.T) {
	raw := encode(t, fixtureSnapshot(t), snapVersion)
	if _, err := Read(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine snapshot failed: %v", err)
	}
	step := len(raw) / 97
	if step < 1 {
		step = 1
	}
	for pos := 8; pos < len(raw); pos += step {
		mut := append([]byte(nil), raw...)
		mut[pos] ^= 0x40
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip at byte %d went undetected", pos)
		}
	}
}

func TestReadDetectsTruncation(t *testing.T) {
	raw := encode(t, fixtureSnapshot(t), snapVersion)
	for _, keep := range []int{len(raw) - 1, len(raw) / 2, 20, 9} {
		_, err := Read(bytes.NewReader(raw[:keep]))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", keep, err)
		}
	}
}

func TestReadCorruptIsNamedError(t *testing.T) {
	raw := encode(t, fixtureSnapshot(t), snapVersion)
	mut := append([]byte(nil), raw...)
	mut[100] ^= 0xff // inside the vocabulary section
	_, err := Read(bytes.NewReader(mut))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("vocabulary corruption: got %v, want ErrCorrupt", err)
	}
}

// Read packs the α files as it decodes them, which is where a list that
// no build can have written is seen: an entry that is not a place, a
// distance beyond the radius, an entry out of order. Each is ErrCorrupt
// whether or not a CRC covers it, never a panic and never a wrong bound.
func TestReadRejectsImpossibleAlphaLists(t *testing.T) {
	good := fixtureSnapshot(t)
	places := good.Graph.Places()
	notPlace := uint32(0)
	for good.Graph.IsPlace(notPlace) {
		notPlace++
	}
	file := func(entries ...invindex.Posting) invindex.Index {
		b := invindex.NewBuilder()
		b.Reserve(good.Graph.Vocab.Len())
		for _, p := range entries {
			b.Add(3, p.ID, p.Weight)
		}
		return b.Build()
	}
	for name, s := range map[string]*Snapshot{
		"an entry that is not a place": {AlphaPlace: file(invindex.Posting{ID: places[0], Weight: 1}, invindex.Posting{ID: notPlace, Weight: 1}), AlphaNode: good.AlphaNode},
		"a place distance beyond α":    {AlphaPlace: file(invindex.Posting{ID: places[0], Weight: 3}), AlphaNode: good.AlphaNode},
		"a node distance beyond α":     {AlphaPlace: good.AlphaPlace, AlphaNode: file(invindex.Posting{ID: 0, Weight: 200})},
		"entries out of order":         {AlphaPlace: outOfOrder{good.AlphaPlace, places}, AlphaNode: good.AlphaNode},
	} {
		s.Graph, s.AlphaRadius, s.Dir = good.Graph, good.AlphaRadius, good.Dir
		for _, version := range []uint32{1, snapVersion} {
			if _, err := Read(bytes.NewReader(encode(t, s, version))); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, format version %d: got %v, want ErrCorrupt", name, version, err)
			}
		}
	}
}

// outOfOrder serves term 3 as two places in descending order.
type outOfOrder struct {
	invindex.Index
	places []uint32
}

func (o outOfOrder) Postings(term uint32, dst []invindex.Posting) ([]invindex.Posting, error) {
	if term == 3 {
		return append(dst, invindex.Posting{ID: o.places[1]}, invindex.Posting{ID: o.places[0]}), nil
	}
	return o.Index.Postings(term, dst)
}

// FuzzRead asserts the loader never panics or over-allocates on
// adversarial input — it may only return an error or a valid snapshot —
// read into memory or opened disk-resident (pread, from a file). An input
// OpenDisk accepts, Read accepts too, with the same document at every
// vertex; OpenDisk decodes it from the file on every call.
func FuzzRead(f *testing.F) {
	small := paperdata.Figure1()
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Graph: small.G, Dir: rdf.Outgoing}); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	var v1 bytes.Buffer
	if err := writeVersion(&v1, &Snapshot{Graph: small.G, Dir: rdf.Outgoing}, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<22 {
			return
		}
		snap, err := Read(bytes.NewReader(data))
		if err == nil && snap.Graph == nil {
			t.Fatal("nil-graph snapshot without error")
		}
		path := filepath.Join(t.TempDir(), "fuzz.snap")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		disk, derr := OpenDisk(path, false)
		if derr != nil {
			return
		}
		defer disk.Close()
		if err != nil {
			if disk.AlphaRadius > 0 {
				// Read also checks every α list as it packs them; OpenDisk
				// leaves the lists in the file, unread until a query.
				return
			}
			t.Fatalf("OpenDisk accepted what Read refused: %v", err)
		}
		if n := disk.Graph.NumVertices(); n != snap.Graph.NumVertices() {
			t.Fatalf("OpenDisk: %d vertices, Read: %d", n, snap.Graph.NumVertices())
		}
		for v := uint32(0); int(v) < snap.Graph.NumVertices(); v++ {
			if got, want := disk.Graph.Doc(v), snap.Graph.Doc(v); !slices.Equal(got, want) {
				t.Fatalf("Doc(%d): OpenDisk %v, Read %v", v, got, want)
			}
		}
	})
}
