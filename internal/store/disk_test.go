package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
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
		Tree:        e.Tree,
		Reach:       e.Reach,
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

// A snapshot opened with OpenDisk must expose exactly the same graph
// and α posting lists as the one Read holds, in both modes: mapped, the
// graph and the α files are views of the mapping; without a mapping,
// they are on the heap, as Read's.
func TestOpenDiskMatchesRead(t *testing.T) {
	path, e, g := diskFixture(t)
	mem, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if mem.Mapped() {
		t.Fatal("in-memory snapshot claims to be mapped")
	}

	for _, useMmap := range []bool{false, true} {
		disk, err := OpenDisk(path, useMmap)
		if err != nil {
			t.Fatalf("OpenDisk(mmap=%v): %v", useMmap, err)
		}
		if mapped := useMmap && runtime.GOOS == "linux"; disk.Mapped() != mapped {
			t.Fatalf("OpenDisk(mmap=%v): Mapped %v, want %v", useMmap, disk.Mapped(), mapped)
		}
		if disk.AlphaRadius != 2 || disk.Dir != rdf.Outgoing {
			t.Fatalf("alpha metadata lost: %+v", disk)
		}
		sameGraph(t, fmt.Sprintf("OpenDisk(mmap=%v)", useMmap), disk.Graph, g)
		for v := uint32(0); int(v) < g.NumVertices(); v++ {
			if a, b := mem.Graph.Doc(v), disk.Graph.Doc(v); !slices.Equal(a, b) {
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

// Queries over an engine assembled from a disk-resident snapshot — its
// R-tree, reachability labels and α index all served from the file — must
// match the original engine exactly (same places, same scores).
func TestOpenDiskQueryEquivalence(t *testing.T) {
	path, orig, g := diskFixture(t)
	qg := gen.NewQueryGen(g, rdf.Outgoing, 31)
	for _, useMmap := range []bool{false, true} {
		snap, err := OpenDisk(path, useMmap)
		if err != nil {
			t.Fatal(err)
		}
		restored := core.NewEngineOver(snap.Graph, snap.Tree, snap.Dir)
		restored.Reach = snap.Reach
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

// Opening from disk must keep the full CRC coverage: corruption anywhere
// in the file fails the open with ErrCorrupt, mapped or not.
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
		for _, useMmap := range []bool{false, true} {
			if _, err := OpenDisk(badPath, useMmap); !errors.Is(err, ErrCorrupt) {
				t.Errorf("corruption at %d, mmap=%v: err = %v, want ErrCorrupt", off, useMmap, err)
			}
		}
	}
	// Truncation.
	trunc := filepath.Join(t.TempDir(), "trunc.bin")
	if err := os.WriteFile(trunc, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	for _, useMmap := range []bool{false, true} {
		if _, err := OpenDisk(trunc, useMmap); !errors.Is(err, ErrCorrupt) {
			t.Errorf("truncation, mmap=%v: err = %v, want ErrCorrupt", useMmap, err)
		}
	}
}

// A snapshot is served as it lies in the file, so a document
// whose terms are not strictly ascending — which Write never emits, and
// which a Builder would sort — fails the open in every mode instead of
// reaching HasTerm's binary search, even with its trailer recomputed.
func TestOpenDiskRejectsUnsortedDocument(t *testing.T) {
	b := rdf.NewBuilder()
	v := b.AddBareVertex("v")
	b.AddTermID(v, b.Vocab.ID("a"))
	b.AddTermID(v, b.Vocab.ID("b"))
	img := layoutOf(t, encode(t, &Snapshot{Graph: b.Build()}))
	if got := img.u32s("docTerms"); !slices.Equal(got, []uint32{0, 1}) {
		t.Fatalf("document terms %v, want [0 1]", got)
	}
	img.put("docTerms", 0, 1)
	img.put("docTerms", 1, 0)
	for mode, open := range openAll(t, img.resummed()) {
		if _, err := open(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s of an unsorted document: err = %v, want ErrCorrupt", mode, err)
		}
	}
}

// A mapped snapshot cannot be re-serialized — its Graph and α files are
// views of the file it came from — and Write must say so instead of
// writing from under its own feet. Opened without a mapping, it is on the
// heap and writes back byte for byte.
func TestWriteRejectsDiskResident(t *testing.T) {
	path, _, _ := diskFixture(t)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, useMmap := range []bool{false, true} {
		snap, err := OpenDisk(path, useMmap)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		err = Write(&buf, snap)
		switch {
		case snap.Mapped() && err == nil:
			t.Error("Write of a mapped snapshot should fail")
		case !snap.Mapped() && err != nil:
			t.Errorf("Write of a snapshot on the heap: %v", err)
		case !snap.Mapped() && !bytes.Equal(buf.Bytes(), want):
			t.Errorf("a snapshot read and written again changed: %d bytes, then %d", len(want), buf.Len())
		}
		if err := snap.Close(); err != nil {
			t.Error(err)
		}
	}
}
