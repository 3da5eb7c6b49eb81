package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ksp/internal/alpha"
	"ksp/internal/core"
	"ksp/internal/faultinject"
	"ksp/internal/gen"
	"ksp/internal/paperdata"
	"ksp/internal/rdf"
	"ksp/internal/rtree"
)

func roundTrip(t *testing.T, s *Snapshot) *Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, s); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestGraphRoundTrip(t *testing.T) {
	f := paperdata.Figure1()
	got := roundTrip(t, &Snapshot{Graph: f.G, Dir: rdf.Outgoing})
	g2 := got.Graph

	if g2.NumVertices() != f.G.NumVertices() || g2.NumEdges() != f.G.NumEdges() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", g2.NumVertices(), g2.NumEdges(), f.G.NumVertices(), f.G.NumEdges())
	}
	for v := uint32(0); int(v) < f.G.NumVertices(); v++ {
		if g2.URI(v) != f.G.URI(v) {
			t.Fatalf("URI %d changed", v)
		}
		if !reflect.DeepEqual(g2.Out(v), f.G.Out(v)) {
			t.Fatalf("Out(%d) changed: %v vs %v", v, g2.Out(v), f.G.Out(v))
		}
		// Documents must hold the same words (term IDs may renumber).
		a := docWords(f.G, v)
		b := docWords(g2, v)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("Doc(%d) changed: %v vs %v", v, a, b)
		}
		if g2.IsPlace(v) != f.G.IsPlace(v) {
			t.Fatalf("place flag %d changed", v)
		}
		if f.G.IsPlace(v) && g2.Loc(v) != f.G.Loc(v) {
			t.Fatalf("loc %d changed", v)
		}
	}
	// Predicate labels survive.
	p1out := g2.OutPreds(f.P1)
	names := map[string]bool{}
	for _, p := range p1out {
		names[g2.PredName(p)] = true
	}
	if !names["dedication"] || !names["subject"] || !names["diocese"] {
		t.Errorf("p1 predicate labels lost: %v", names)
	}
}

func docWords(g *rdf.Graph, v uint32) map[string]bool {
	out := map[string]bool{}
	for _, t := range g.Doc(v) {
		out[g.Vocab.Term(t)] = true
	}
	return out
}

func TestSnapshotWithAlpha(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(800, 5))
	e := core.NewEngine(g, rdf.Outgoing)
	e.EnableAlpha(2)

	snap := &Snapshot{
		Graph:       g,
		AlphaRadius: 2,
		Dir:         rdf.Outgoing,
		AlphaPlace:  e.Alpha.PlaceIdx,
		AlphaNode:   e.Alpha.NodeIdx,
	}
	got := roundTrip(t, snap)
	if got.AlphaRadius != 2 || got.Dir != rdf.Outgoing {
		t.Fatalf("alpha metadata lost: %+v", got)
	}
	ix := got.AlphaIndex()
	if ix == nil {
		t.Fatal("AlphaIndex nil")
	}
	// Posting lists identical term-by-term (vocabulary order is preserved
	// by the loader).
	for term := 0; term < e.Alpha.PlaceIdx.NumTerms(); term++ {
		a, _ := e.Alpha.PlaceIdx.Postings(uint32(term), nil)
		b, _ := ix.PlaceIdx.Postings(uint32(term), nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("place postings for term %d differ", term)
		}
		a, _ = e.Alpha.NodeIdx.Postings(uint32(term), nil)
		b, _ = ix.NodeIdx.Postings(uint32(term), nil)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("node postings for term %d differ", term)
		}
	}
}

// The α node postings are keyed by R-tree node IDs. A snapshot holds the
// tree they were built over, and a load serves that tree; an α node file
// over any other tree is refused, in every mode, because its universe is
// not the tree's node count.
func TestSnapshotAlphaNodesKeyedByItsTree(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(600, 9))
	e := core.NewEngine(g, rdf.Outgoing)
	e.EnableAlpha(2)
	s := &Snapshot{Graph: g, Tree: e.Tree, AlphaRadius: 2, Dir: rdf.Outgoing, AlphaPlace: e.Alpha.PlaceIdx, AlphaNode: e.Alpha.NodeIdx}
	for mode, open := range openAll(t, encode(t, s)) {
		got, err := open()
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !reflect.DeepEqual(got.Tree.Arrays(), e.Tree.Arrays()) || got.AlphaNode.Universe() != e.Tree.NumNodes() {
			t.Fatalf("%s: the loaded R-tree is not the saved one", mode)
		}
	}
	finer := rtree.Bulk(treeItems(g), 8)
	other := alpha.Build(g, finer, 2, rdf.Outgoing)
	s.AlphaPlace, s.AlphaNode = other.PlaceIdx, other.NodeIdx
	for mode, open := range openAll(t, encode(t, s)) {
		if _, err := open(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: an α node file over %d nodes with a tree of %d: got %v, want ErrCorrupt",
				mode, finer.NumNodes(), e.Tree.NumNodes(), err)
		}
	}
}

// treeItems returns g's places as R-tree items.
func treeItems(g *rdf.Graph) []rtree.Item {
	items := make([]rtree.Item, len(g.Places()))
	for i, p := range g.Places() {
		items[i] = rtree.Item{ID: p, Loc: g.Loc(p)}
	}
	return items
}

// End-to-end: a query over an engine restored from a snapshot must match
// the original engine exactly.
func TestSnapshotQueryEquivalence(t *testing.T) {
	g := gen.Generate(gen.DBpediaConfig(900, 13))
	qg := gen.NewQueryGen(g, rdf.Outgoing, 14)
	orig := core.NewEngine(g, rdf.Outgoing)
	orig.EnableReach()
	orig.EnableAlpha(3)

	path := filepath.Join(t.TempDir(), "snap.bin")
	err := SaveFile(path, &Snapshot{
		Graph:       g,
		Tree:        orig.Tree,
		Reach:       orig.Reach,
		AlphaRadius: 3,
		Dir:         rdf.Outgoing,
		AlphaPlace:  orig.Alpha.PlaceIdx,
		AlphaNode:   orig.Alpha.NodeIdx,
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored := core.NewEngineOver(snap.Graph, snap.Tree, snap.Dir)
	restored.Reach = snap.Reach
	restored.SetAlpha(snap.AlphaIndex())

	for trial := 0; trial < 6; trial++ {
		loc, kws := qg.Original(4)
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
			t.Fatalf("trial %d: %d vs %d results", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Place != want[i].Place || got[i].Score != want[i].Score {
				t.Fatalf("trial %d result %d: %+v vs %+v", trial, i, got[i], want[i])
			}
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("junk"))); err == nil {
		t.Error("expected error on short input")
	}
	if _, err := Read(bytes.NewReader(make([]byte, 64))); err == nil {
		t.Error("expected error on zero magic")
	}
	// Truncation mid-stream.
	f := paperdata.Figure1()
	var buf bytes.Buffer
	if err := Write(&buf, &Snapshot{Graph: f.G}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{10, len(full) / 2, len(full) - 3} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Errorf("expected error at cut %d", cut)
		}
	}
}

func TestAlphaIndexNilWithoutAlpha(t *testing.T) {
	f := paperdata.Figure1()
	got := roundTrip(t, &Snapshot{Graph: f.G})
	if got.AlphaIndex() != nil {
		t.Error("AlphaIndex should be nil when none persisted")
	}
}

// A snapshot that claims an α whose distances cannot fit their byte was
// written by a build that wrapped them (or not by Save): it is refused
// as corrupt, not served.
func TestReadRejectsAlphaRadiusBeyondByte(t *testing.T) {
	f := paperdata.Figure1()
	e := core.NewEngine(f.G, rdf.Outgoing)
	e.EnableAlpha(2)
	var buf bytes.Buffer
	err := Write(&buf, &Snapshot{
		Graph:       f.G,
		AlphaRadius: 300,
		AlphaPlace:  e.Alpha.PlaceIdx,
		AlphaNode:   e.Alpha.NodeIdx,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Read of an α = 300 snapshot: got %v, want ErrCorrupt", err)
	}
}

// A save that dies between writing its temp file and renaming it over
// the target commits nothing: the previous snapshot is still there and
// loads, and no temp file is left behind.
func TestSaveFileDiesBeforeRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snap.bin")
	f := paperdata.Figure1()
	if err := SaveFile(path, &Snapshot{Graph: f.G, Dir: rdf.Outgoing}); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	plan := faultinject.NewPlan(8).Add(faultinject.Fault{Point: PointSaveRename, Action: faultinject.Panic})
	faultinject.Activate(plan)
	func() {
		defer func() {
			if _, ok := recover().(*faultinject.Injected); !ok {
				t.Error("the save did not die at its injection point")
			}
		}()
		g := gen.Generate(gen.DBpediaConfig(300, 5))
		err := SaveFile(path, &Snapshot{Graph: g, Dir: rdf.Outgoing})
		t.Errorf("SaveFile returned %v through its injected fault", err)
	}()
	faultinject.Deactivate()
	if plan.Fired(PointSaveRename) != 1 {
		t.Fatalf("the fault fired %d times", plan.Fired(PointSaveRename))
	}

	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("the previous snapshot changed: %d bytes (%v), want %d", len(after), err, len(before))
	}
	snap, err := LoadFile(path)
	if err != nil {
		t.Fatalf("the previous snapshot no longer loads: %v", err)
	}
	if snap.Graph.NumVertices() != f.G.NumVertices() {
		t.Errorf("the previous snapshot loads with %d vertices, want %d", snap.Graph.NumVertices(), f.G.NumVertices())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("the directory holds %q, want the snapshot alone", names)
	}
}
