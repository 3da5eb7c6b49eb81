package alpha_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ksp"
	"ksp/internal/alpha"
	"ksp/internal/gen"
	"ksp/internal/invindex"
	"ksp/internal/rdf"
	"ksp/internal/rtree"
	"ksp/internal/store"
)

// The new index is the old index down to the byte: Dataset.Save of the
// Yago-like fixture writes the file that the same snapshot holding the
// map-based reference build's index is written as.
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

	// The engine's R-tree: STR bulk load of the places at the default
	// fan-out, which is what the node IDs of the node file refer to.
	items := make([]rtree.Item, len(g.Places()))
	for i, p := range g.Places() {
		items[i] = rtree.Item{ID: p, Loc: g.Loc(p)}
	}
	ref := alpha.ReferenceBuildFor(g, rtree.Bulk(items, rtree.DefaultMaxEntries), cfg.AlphaRadius, rdf.Outgoing, g.Places())
	reference := filepath.Join(dir, "reference.snap")
	err = store.SaveFile(reference, &store.Snapshot{
		Graph:       g,
		Dir:         rdf.Outgoing,
		AlphaRadius: cfg.AlphaRadius,
		AlphaPlace:  ref.PlaceIdx.(*invindex.MemIndex),
		AlphaNode:   ref.NodeIdx.(*invindex.MemIndex),
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
