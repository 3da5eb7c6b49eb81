package alpha_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"ksp"
	"ksp/internal/alpha"
	"ksp/internal/gen"
	"ksp/internal/rdf"
	"ksp/internal/reach"
	"ksp/internal/rtree"
	"ksp/internal/store"
)

// strTree is the engine's R-tree: STR bulk load of the places at the
// default fan-out, which is what the node IDs of the node file refer to.
func strTree(g *rdf.Graph) *rtree.RTree {
	items := make([]rtree.Item, len(g.Places()))
	for i, p := range g.Places() {
		items[i] = rtree.Item{ID: p, Loc: g.Loc(p)}
	}
	return rtree.Bulk(items, rtree.DefaultMaxEntries)
}

// The new index is the old index down to the byte: Dataset.Save of the
// Yago-like fixture writes the file that the same snapshot holding the
// map-based reference build's index, packed into Files, is written as
// (with the reachability labels the dataset saves too).
func TestSnapshotByteIdenticalToReference(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(6000, 7))
	cfg := ksp.DefaultConfig()
	dir := t.TempDir()

	ds, err := ksp.NewDatasetFromGraph(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	built := filepath.Join(dir, "built.snap")
	if err := ds.Save(built); err != nil {
		t.Fatal(err)
	}

	ref := alpha.ReferenceBuildFor(g, strTree(g), cfg.AlphaRadius, rdf.Outgoing, g.Places())
	reference := filepath.Join(dir, "reference.snap")
	err = store.SaveFile(reference, &store.Snapshot{
		Graph:       g,
		Reach:       reach.NewKeywordIndex(g, rdf.Outgoing),
		Dir:         rdf.Outgoing,
		AlphaRadius: cfg.AlphaRadius,
		AlphaPlace:  ref.PlaceIdx,
		AlphaNode:   ref.NodeIdx,
	})
	if err != nil {
		t.Fatal(err)
	}

	got, err := os.ReadFile(built)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(reference)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("snapshots differ: %d bytes from Dataset.Save, %d with the reference build's index", len(got), len(want))
	}
	if places, _ := ref.NumPostings(); places == 0 {
		t.Fatal("the fixture has no α postings: nothing was compared")
	}
}

// A saved index serves the bounds of the index it was built as, bit for
// bit, whichever way the snapshot is opened: read onto the heap or
// mapped. The keyword sets take
// terms both files keep as columns, terms both keep as lists, the two
// mixed, each listed twice, and terms no file knows; at α = 15 every term
// is a list.
func TestBoundsIdenticalAcrossSources(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(3000, 11))
	tree := strTree(g)
	opens := map[string]func(path string) (*store.Snapshot, error){
		"Read":           store.LoadFile,
		"OpenDisk(mmap)": func(path string) (*store.Snapshot, error) { return store.OpenDisk(path, true) },
	}
	for _, radius := range []int{1, 3, 15} {
		built := alpha.Build(g, tree, radius, rdf.Outgoing)
		path := filepath.Join(t.TempDir(), "alpha.snap")
		err := store.SaveFile(path, &store.Snapshot{
			Graph:       g,
			Dir:         rdf.Outgoing,
			AlphaRadius: radius,
			AlphaPlace:  built.PlaceIdx,
			AlphaNode:   built.NodeIdx,
		})
		if err != nil {
			t.Fatal(err)
		}
		unknown := uint32(g.Vocab.Len()) + 7
		var sets map[string][]uint32
		if radius <= 14 {
			columns, lists, _ := alpha.TermsByForm(t, built)
			sets = map[string][]uint32{
				"columns":   columns[:3],
				"lists":     lists[:3],
				"mixed":     {columns[0], lists[0], columns[1], lists[1]},
				"duplicate": {columns[0], columns[0], lists[0], lists[0]},
				"unknown":   {columns[0], unknown, lists[0], ^uint32(0)},
			}
		} else {
			sets = map[string][]uint32{
				"lists":     {0, 5, 9},
				"duplicate": {5, 5, 9},
				"unknown":   {5, unknown, ^uint32(0)},
			}
		}
		for name, open := range opens {
			snap, err := open(path)
			if err != nil {
				t.Fatalf("α=%d %s: %v", radius, name, err)
			}
			if mapped := name == "OpenDisk(mmap)" && runtime.GOOS == "linux"; snap.Mapped() != mapped {
				t.Errorf("α=%d %s: Mapped = %v, want %v", radius, name, snap.Mapped(), mapped)
			}
			loaded := snap.AlphaIndex()
			for set, terms := range sets {
				label := fmt.Sprintf("α=%d %s %s %v", radius, name, set, terms)
				want, err := built.LoadQuery(terms)
				if err != nil {
					t.Fatal(err)
				}
				got, err := loaded.LoadQuery(terms)
				if err != nil {
					t.Fatal(err)
				}
				for v := uint32(0); int(v) < g.NumVertices()+4; v++ {
					if a, b := got.PlaceBound(v), want.PlaceBound(v); a != b {
						t.Fatalf("%s: PlaceBound(%d) = %v, built %v", label, v, a, b)
					}
				}
				for n := uint32(0); int(n) < 2*tree.Len()+4; n++ {
					if a, b := got.NodeBound(n), want.NodeBound(n); a != b {
						t.Fatalf("%s: NodeBound(%d) = %v, built %v", label, n, a, b)
					}
				}
				got.Release()
				want.Release()
			}
			if err := snap.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
