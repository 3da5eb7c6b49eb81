package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ksp/internal/core"
	"ksp/internal/gen"
	"ksp/internal/rdf"
)

// diskFixture saves a snapshot with an α index and returns its path plus
// the original engine for reference comparisons.
func diskFixture(t *testing.T) (string, *core.Engine, *rdf.Graph) {
	t.Helper()
	g := gen.Generate(gen.YagoConfig(700, 21))
	e := core.NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(2)
	path := filepath.Join(t.TempDir(), "snap.bin")
	err := SaveFile(path, &Snapshot{
		Graph:       g,
		AlphaRadius: 2,
		Dir:         rdf.Outgoing,
		AlphaPlace:  e.Alpha.PlaceIdx,
		AlphaNode:   e.Alpha.NodeIdx,
	})
	if err != nil {
		t.Fatal(err)
	}
	return path, e, g
}

// A disk-resident snapshot must expose exactly the same graph documents
// and α posting lists as the fully materialized load, in both I/O modes.
func TestOpenDiskMatchesRead(t *testing.T) {
	path, e, g := diskFixture(t)
	mem, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if mem.DiskResident() || mem.Mapped() {
		t.Fatal("in-memory snapshot claims disk residency")
	}

	for _, useMmap := range []bool{false, true} {
		disk, err := OpenDisk(path, useMmap)
		if err != nil {
			t.Fatalf("OpenDisk(mmap=%v): %v", useMmap, err)
		}
		if !disk.DiskResident() {
			t.Fatal("OpenDisk snapshot not disk-resident")
		}
		if !disk.Graph.DocsOnDisk() {
			t.Fatal("documents not disk-resident")
		}
		if disk.AlphaRadius != 2 || disk.Dir != rdf.Outgoing {
			t.Fatalf("alpha metadata lost: %+v", disk)
		}
		if g2 := disk.Graph; g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("graph shape changed: %d/%d", g2.NumVertices(), g2.NumEdges())
		}
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			a := append([]uint32(nil), mem.Graph.Doc(v)...)
			b := append([]uint32(nil), disk.Graph.Doc(v)...)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("mmap=%v: Doc(%d) = %v, want %v", useMmap, v, b, a)
			}
		}
		for term := 0; term < e.Alpha.PlaceIdx.NumTerms(); term++ {
			a, err := mem.AlphaPlace.Postings(uint32(term), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err := disk.AlphaPlace.Postings(uint32(term), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("mmap=%v: place postings for term %d differ", useMmap, term)
			}
			a, err = mem.AlphaNode.Postings(uint32(term), nil)
			if err != nil {
				t.Fatal(err)
			}
			b, err = disk.AlphaNode.Postings(uint32(term), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("mmap=%v: node postings for term %d differ", useMmap, term)
			}
		}
		if err := disk.Close(); err != nil {
			t.Fatal(err)
		}
		if err := disk.Close(); err != nil { // idempotent
			t.Fatal(err)
		}
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("snapshot file removed by Close: %v", err)
		}
	}
}

// Queries over an engine assembled from a disk-resident snapshot must
// match the original engine exactly (same places, same scores).
func TestOpenDiskQueryEquivalence(t *testing.T) {
	path, orig, g := diskFixture(t)
	qg := gen.NewQueryGen(g, rdf.Outgoing, 31)
	for _, useMmap := range []bool{false, true} {
		snap, err := OpenDisk(path, useMmap)
		if err != nil {
			t.Fatal(err)
		}
		restored := core.NewEngine(snap.Graph, snap.Dir)
		restored.EnableReach()
		restored.SetAlpha(snap.AlphaIndex())
		for trial := 0; trial < 5; trial++ {
			loc, kws := qg.Original(3)
			q := core.Query{Loc: loc, Keywords: kws, K: 5}
			want, _, err := orig.SP(q, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := restored.SP(q, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("mmap=%v trial %d: %d vs %d results", useMmap, trial, len(got), len(want))
			}
			for i := range want {
				if got[i].Place != want[i].Place || got[i].Score != want[i].Score {
					t.Fatalf("mmap=%v trial %d result %d: %+v vs %+v", useMmap, trial, i, got[i], want[i])
				}
			}
		}
		if err := snap.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// Disk-resident opening must keep the full CRC coverage: corruption
// anywhere in the file — including the sections that stay on disk —
// fails the open with ErrCorrupt.
func TestOpenDiskDetectsCorruption(t *testing.T) {
	path, _, _ := diskFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte in the middle (documents region) and near the end
	// (α posting area).
	for _, off := range []int{len(data) / 2, len(data) - 16} {
		bad := append([]byte(nil), data...)
		bad[off] ^= 0xFF
		badPath := filepath.Join(t.TempDir(), "bad.bin")
		if err := os.WriteFile(badPath, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDisk(badPath, false); !errors.Is(err, ErrCorrupt) {
			t.Errorf("corruption at %d: err = %v, want ErrCorrupt", off, err)
		}
	}
	// Truncation.
	trunc := filepath.Join(t.TempDir(), "trunc.bin")
	if err := os.WriteFile(trunc, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDisk(trunc, false); !errors.Is(err, ErrCorrupt) {
		t.Errorf("truncation: err = %v, want ErrCorrupt", err)
	}
}

// Version 1 snapshots (no CRC trailers) must stay loadable in
// disk-resident mode too, read or mapped: their α lists are packed onto
// the heap either way.
func TestOpenDiskV1(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(400, 3))
	e := core.NewEngine(g, rdf.Outgoing)
	e.EnableAlpha(2)
	s := &Snapshot{
		Graph:       g,
		AlphaRadius: 2,
		Dir:         rdf.Outgoing,
		AlphaPlace:  e.Alpha.PlaceIdx,
		AlphaNode:   e.Alpha.NodeIdx,
	}
	var buf bytes.Buffer
	if err := writeVersion(&buf, s, 1); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.bin")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, useMmap := range []bool{false, true} {
		snap, err := OpenDisk(path, useMmap)
		if err != nil {
			t.Fatal(err)
		}
		if snap.AlphaMapped() {
			t.Errorf("mmap=%v: a version 1 snapshot's α files claim to be mapped", useMmap)
		}
		for term := 0; term < e.Alpha.PlaceIdx.NumTerms(); term++ {
			a, _ := e.Alpha.PlaceIdx.Postings(uint32(term), nil)
			b, err := snap.AlphaPlace.Postings(uint32(term), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("mmap=%v: v1 place postings for term %d differ", useMmap, term)
			}
		}
		if err := snap.Close(); err != nil {
			t.Error(err)
		}
	}
}

// OpenDisk serves a document as it lies in the file, so a document whose
// terms are not strictly ascending — which Write never emits, and which
// Read would sort — fails the open instead of reaching HasTerm's binary
// search.
func TestOpenDiskRejectsUnsortedDocument(t *testing.T) {
	b := rdf.NewBuilder()
	v := b.AddBareVertex("v")
	b.AddTermID(v, b.Vocab.ID("a"))
	b.AddTermID(v, b.Vocab.ID("b"))
	var buf bytes.Buffer
	if err := writeVersion(&buf, &Snapshot{Graph: b.Build()}, 1); err != nil {
		t.Fatal(err)
	}
	// The document section of the one vertex: count 2, terms 0 and 1.
	doc := []byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0}
	if n := bytes.Count(buf.Bytes(), doc); n != 1 {
		t.Fatalf("document bytes found %d times", n)
	}
	raw := bytes.Replace(buf.Bytes(), doc, []byte{2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0}, 1)
	if _, err := Read(bytes.NewReader(raw)); err != nil {
		t.Fatalf("Read: %v", err)
	}
	path := filepath.Join(t.TempDir(), "unsorted.bin")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if snap, err := OpenDisk(path, false); !errors.Is(err, ErrCorrupt) {
		if err == nil {
			snap.Close()
		}
		t.Fatalf("OpenDisk of an unsorted document: err = %v, want ErrCorrupt", err)
	}
}

// A disk-resident snapshot cannot be re-serialized: its documents are
// served from the file it came from, and Write must say so instead of
// writing a broken file.
func TestWriteRejectsDiskResident(t *testing.T) {
	path, _, _ := diskFixture(t)
	snap, err := OpenDisk(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := snap.Close(); err != nil {
			t.Error(err)
		}
	}()
	if !snap.DiskResident() {
		t.Fatal("fixture not disk-resident")
	}
	var buf bytes.Buffer
	if err := Write(&buf, snap); err == nil {
		t.Fatal("Write of disk-resident snapshot should fail")
	}
}
