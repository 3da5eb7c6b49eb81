package ksp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// figure1NT is the running example of the paper in N-Triples form.
const figure1NT = `
<ex:Montmajour_Abbey> <ex:label> "Montmajour Abbey" .
<ex:Montmajour_Abbey> <ex:hasGeometry> "POINT(43.71 4.66)"^^<http://www.opengis.net/ont/geosparql#wktLiteral> .
<ex:Montmajour_Abbey> <ex:subject> <ex:Romanesque_architecture> .
<ex:Montmajour_Abbey> <ex:dedication> <ex:Saint_Peter> .
<ex:Montmajour_Abbey> <ex:diocese> <ex:Ancient_Diocese_of_Arles> .
<ex:Ancient_Diocese_of_Arles> <ex:subject> <ex:Architectural_history> .
<ex:Saint_Peter> <ex:birthPlace> <ex:Roman_Empire> .
<ex:Saint_Peter> <ex:label> "catholic roman saint" .
<ex:Roman_Empire> <ex:label> "ancient roman empire" .
<ex:Dioecese_of_Frejus> <ex:label> "roman catholic diocese" .
<ex:Dioecese_of_Frejus> <ex:hasGeometry> "POINT(43.13 5.97)"^^<http://www.opengis.net/ont/geosparql#wktLiteral> .
<ex:Dioecese_of_Frejus> <ex:patron> <ex:Mary_Magdalene> .
<ex:Dioecese_of_Frejus> <ex:denomination> <ex:Catholic_Church> .
<ex:Catholic_Church> <ex:label> "catholic church history" .
<ex:Mary_Magdalene> <ex:deathPlace> <ex:Anatolia> .
<ex:Anatolia> <ex:label> "ancient anatolia history" .
`

func openFixture(t *testing.T, cfg Config) *Dataset {
	t.Helper()
	ds, err := Open(strings.NewReader(figure1NT), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestOpenAndSearch(t *testing.T) {
	ds := openFixture(t, DefaultConfig())
	st := ds.Stats()
	if st.Places != 2 {
		t.Fatalf("places = %d, want 2", st.Places)
	}
	if st.Vertices == 0 || st.Edges == 0 || st.Terms == 0 {
		t.Fatalf("stats empty: %+v", st)
	}

	q := Query{
		Loc:      Point{X: 43.51, Y: 4.75},
		Keywords: []string{"ancient", "roman", "catholic", "history"},
		K:        2,
	}
	res, err := ds.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if ds.URI(res[0].Place) != "ex:Montmajour_Abbey" {
		t.Errorf("top-1 = %s, want the abbey", ds.URI(res[0].Place))
	}
	if ds.URI(res[1].Place) != "ex:Dioecese_of_Frejus" {
		t.Errorf("top-2 = %s, want the diocese", ds.URI(res[1].Place))
	}
	if res[0].Looseness != 6 || res[1].Looseness != 4 {
		t.Errorf("loosenesses %v, %v; want 6, 4", res[0].Looseness, res[1].Looseness)
	}
}

func TestAllAlgorithmsAgreeOnPublicAPI(t *testing.T) {
	ds := openFixture(t, DefaultConfig())
	q := Query{Loc: Point{X: 43.17, Y: 5.90}, Keywords: []string{"ancient", "roman", "catholic", "history"}, K: 2}
	var base []Result
	for _, algo := range []Algorithm{AlgoBSP, AlgoSPP, AlgoSP, AlgoTA} {
		res, stats, err := ds.SearchWith(algo, q, Options{})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if stats == nil {
			t.Fatalf("%v: nil stats", algo)
		}
		if base == nil {
			base = res
			continue
		}
		if len(res) != len(base) {
			t.Fatalf("%v: %d results vs %d", algo, len(res), len(base))
		}
		for i := range res {
			if res[i].Place != base[i].Place || math.Abs(res[i].Score-base[i].Score) > 1e-9 {
				t.Errorf("%v result %d differs: %+v vs %+v", algo, i, res[i], base[i])
			}
		}
	}
}

func TestBuilderAPI(t *testing.T) {
	b := NewBuilder()
	b.AddPlace("ex:Hospital_A", Point{X: 1, Y: 1})
	b.AddLabel("ex:Hospital_A", "ex:label", "hospital general")
	b.AddFact("ex:Hospital_A", "ex:offers", "ex:Cardiology_Dept")
	b.AddLabel("ex:Cardiology_Dept", "ex:label", "cardiology heart treatment")
	b.AddPlace("ex:Hospital_B", Point{X: 1.2, Y: 1.1})
	b.AddLabel("ex:Hospital_B", "ex:label", "hospital dental clinic")
	ds, err := b.Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := ds.Search(Query{Loc: Point{X: 1.1, Y: 1}, Keywords: []string{"hospital", "cardiology"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || ds.URI(res[0].Place) != "ex:Hospital_A" {
		t.Fatalf("expected Hospital_A, got %+v", res)
	}
	loc, ok := ds.Location(res[0].Place)
	if !ok || loc != (Point{X: 1, Y: 1}) {
		t.Errorf("Location = %v, %v", loc, ok)
	}
	desc := ds.Describe(res[0].Place)
	if len(desc) == 0 {
		t.Error("Describe should return terms")
	}
}

// A place at a NaN or infinite coordinate cannot be ordered by distance:
// the builder refuses it, and Build names the subject, instead of
// building a dataset whose queries silently leave the place out and
// whose snapshot cannot be loaded.
func TestBuilderRefusesNonFinitePlaces(t *testing.T) {
	for _, loc := range []Point{{X: math.NaN(), Y: 1}, {X: 1, Y: math.Inf(1)}, {X: math.Inf(-1), Y: 2}} {
		b := NewBuilder()
		b.AddPlace("ex:museum_a", Point{X: 1, Y: 1})
		b.AddLabel("ex:museum_a", "ex:label", "museum")
		b.AddPlace("ex:museum_b", loc)
		b.AddLabel("ex:museum_b", "ex:label", "museum")
		b.AddPlace("ex:museum_c", Point{X: math.NaN(), Y: math.NaN()})
		ds, err := b.Build(DefaultConfig())
		if !errors.Is(err, ErrBadCoordinate) || !strings.Contains(err.Error(), `"ex:museum_b"`) || ds != nil {
			t.Errorf("Build with a place at %v: %v, %v; want ErrBadCoordinate naming ex:museum_b", loc, ds, err)
		}
	}
}

func TestSearchFallsBackWithoutIndexes(t *testing.T) {
	// No α index and no reachability: Search must still work (BSP).
	ds := openFixture(t, Config{Direction: Outgoing})
	res, err := ds.Search(Query{Loc: Point{X: 43.51, Y: 4.75}, Keywords: []string{"ancient"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("got %d results", len(res))
	}
	// SP must refuse politely.
	if _, _, err := ds.SearchWith(AlgoSP, Query{Loc: Point{}, Keywords: []string{"ancient"}, K: 1}, Options{}); err == nil {
		t.Error("SP without α index should error")
	}
	if _, _, err := ds.SearchWith(Algorithm(99), Query{}, Options{}); err == nil {
		t.Error("unknown algorithm should error")
	}
}

func TestCollectTreesPublic(t *testing.T) {
	ds := openFixture(t, DefaultConfig())
	res, _, err := ds.SearchWith(AlgoSP, Query{
		Loc:      Point{X: 43.17, Y: 5.90},
		Keywords: []string{"ancient", "roman", "catholic", "history"},
		K:        1,
	}, Options{CollectTrees: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Tree == nil {
		t.Fatalf("expected a tree: %+v", res)
	}
	names := map[string]bool{}
	for _, n := range res[0].Tree.Nodes {
		names[ds.URI(n.V)] = true
	}
	for _, want := range []string{"ex:Dioecese_of_Frejus", "ex:Mary_Magdalene", "ex:Catholic_Church", "ex:Anatolia"} {
		if !names[want] {
			t.Errorf("tree missing %s (have %v)", want, names)
		}
	}
}

func TestStemmingConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stemming = true
	cfg.RemoveStopwords = true
	ds := openFixture(t, cfg)
	// "architectures" matches documents containing "architecture" or
	// "architectural" once all stem to "architectur".
	q := Query{Loc: Point{X: 43.51, Y: 4.75}, Keywords: []string{"Architectures", "romanesque"}, K: 1}
	res, err := ds.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || ds.URI(res[0].Place) != "ex:Montmajour_Abbey" {
		t.Fatalf("stemming search failed: %+v", res)
	}
	// Without stemming the same query finds nothing ("architectures" is
	// absent as a literal token).
	plain := openFixture(t, DefaultConfig())
	res, err = plain.Search(Query{Loc: q.Loc, Keywords: []string{"architectures", "romanesque"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("plain search unexpectedly matched: %+v", res)
	}
	// Pure-stopword keywords are vacuously covered.
	res, err = ds.Search(Query{Loc: q.Loc, Keywords: []string{"the", "romanesque"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("stopword keyword should be ignored: %+v", res)
	}
}

func TestStemmingSurvivesSnapshot(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stemming = true
	ds := openFixture(t, cfg)
	path := t.TempDir() + "/stemmed.snap"
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(path, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Loc: Point{X: 43.51, Y: 4.75}, Keywords: []string{"architectural", "romanesque"}, K: 1}
	res, err := restored.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Fatalf("restored dataset lost its analyzer: %+v", res)
	}
}

func TestMultiTokenKeyword(t *testing.T) {
	ds := openFixture(t, DefaultConfig())
	// A camel-case keyword splits into two query keywords, both of which
	// must be covered.
	res, err := ds.Search(Query{Loc: Point{X: 43.51, Y: 4.75}, Keywords: []string{"romanCatholic"}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("multi-token keyword: %+v", res)
	}
	// Both roman and catholic are at the diocese root: L = 1.
	if ds.URI(res[0].Place) != "ex:Dioecese_of_Frejus" && ds.URI(res[1].Place) != "ex:Dioecese_of_Frejus" {
		t.Errorf("diocese missing from results")
	}
}

func TestSaveAndLoadSnapshot(t *testing.T) {
	ds := openFixture(t, DefaultConfig())
	path := t.TempDir() + "/fixture.snap"
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSnapshot(path, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats() != ds.Stats() {
		t.Fatalf("stats changed: %+v vs %+v", restored.Stats(), ds.Stats())
	}
	// Built, loaded onto the heap or mapped, the graph and the indexes can
	// be saved again, byte for byte.
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, mmap := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Mmap = mmap
		loaded, err := LoadSnapshot(path, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mapped := mmap && runtime.GOOS == "linux"
		if st := loaded.Stats(); st.MemoryMapped != mapped {
			t.Errorf("Mmap=%v: stats = %+v, want MemoryMapped %v", mmap, st, mapped)
		}
		again := t.TempDir() + "/again.snap"
		if err := loaded.Save(again); err != nil {
			t.Errorf("Mmap=%v: Save: %v", mmap, err)
		} else if second, err := os.ReadFile(again); err != nil {
			t.Fatal(err)
		} else if !bytes.Equal(first, second) {
			t.Errorf("Mmap=%v: a snapshot saved, loaded and saved again changed: %d bytes, then %d", mmap, len(first), len(second))
		}
		// Describe reads each document from the snapshot's image.
		for v := uint32(0); int(v) < ds.Stats().Vertices; v++ {
			if got, want := loaded.Describe(v), ds.Describe(v); !slices.Equal(got, want) {
				t.Errorf("Mmap=%v: Describe(%d) = %v, want %v", mmap, v, got, want)
			}
		}
		if err := loaded.Close(); err != nil {
			t.Error(err)
		}
	}
	q := Query{Loc: Point{X: 43.51, Y: 4.75}, Keywords: []string{"ancient", "roman", "catholic", "history"}, K: 2}
	want, err := ds.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result counts differ")
	}
	for i := range want {
		if restored.URI(got[i].Place) != ds.URI(want[i].Place) || got[i].Score != want[i].Score {
			t.Errorf("result %d differs after reload", i)
		}
	}
	// SP must be available from the snapshot's α index without a rebuild.
	if _, _, err := restored.SearchWith(AlgoSP, q, Options{}); err != nil {
		t.Errorf("SP unavailable after load: %v", err)
	}
	if _, err := LoadSnapshot(t.TempDir()+"/missing.snap", DefaultConfig()); err == nil {
		t.Error("expected error for missing snapshot")
	}
}

// Saving over a snapshot that a dataset maps replaces the file: the
// mapped dataset keeps its answers and URIs, a fresh LoadSnapshot sees
// the new file, and a mapped dataset may save over its own file.
func TestSaveOverMappedSnapshot(t *testing.T) {
	path := t.TempDir() + "/live.snap"
	if err := openFixture(t, DefaultConfig()).Save(path); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Mmap = true
	live, err := LoadSnapshot(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	q := Query{Loc: Point{X: 43.51, Y: 4.75}, Keywords: []string{"ancient", "roman", "catholic", "history"}, K: 2}
	answer := func() ([]Result, []string) {
		t.Helper()
		res, _, err := live.SearchWith(AlgoSP, q, Options{})
		if err != nil {
			t.Fatalf("SP on the mapped dataset: %v", err)
		}
		uris := make([]string, live.Stats().Vertices)
		for v := range uris {
			uris[v] = live.URI(uint32(v))
		}
		return res, uris
	}
	wantRes, wantURIs := answer()

	b := NewBuilder()
	b.AddPlace("ex:Lone", Point{X: 1, Y: 2})
	b.AddLabel("ex:Lone", "ex:label", "lone place")
	other, err := b.Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Save(path); err != nil {
		t.Fatal(err)
	}
	gotRes, gotURIs := answer()
	if !reflect.DeepEqual(gotRes, wantRes) || !slices.Equal(gotURIs, wantURIs) {
		t.Fatalf("the mapped dataset changed under a save over its file:\n%+v %q\nwant %+v %q", gotRes, gotURIs, wantRes, wantURIs)
	}
	fresh, err := LoadSnapshot(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Stats(), other.Stats(); got.Places != want.Places || got.Vertices != want.Vertices {
		t.Errorf("a fresh load sees %+v, want the new file's %+v", got, want)
	}
	if err := fresh.Close(); err != nil {
		t.Error(err)
	}

	// The mapped dataset saves itself over the file it maps.
	if err := live.Save(path); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(path); err != nil || !bytes.Equal(again, first) {
		t.Errorf("a mapped dataset saved over its own file: %d bytes (%v), want the %d it opened", len(again), err, len(first))
	}
	if gotRes, gotURIs := answer(); !reflect.DeepEqual(gotRes, wantRes) || !slices.Equal(gotURIs, wantURIs) {
		t.Errorf("the mapped dataset changed after saving over its own file")
	}
}

func TestKeywordSearch(t *testing.T) {
	ds := openFixture(t, DefaultConfig())
	// Purely semantic: the diocese (L=4) beats the abbey (L=6) no matter
	// where the user stands.
	res, err := ds.KeywordSearch([]string{"ancient", "roman", "catholic", "history"}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results", len(res))
	}
	if ds.URI(res[0].Place) != "ex:Dioecese_of_Frejus" || res[0].Looseness != 4 {
		t.Errorf("top-1 = %s L=%v, want diocese L=4", ds.URI(res[0].Place), res[0].Looseness)
	}
	if ds.URI(res[1].Place) != "ex:Montmajour_Abbey" || res[1].Looseness != 6 {
		t.Errorf("top-2 = %s L=%v, want abbey L=6", ds.URI(res[1].Place), res[1].Looseness)
	}
	// Uncoverable keywords yield nothing.
	res, err = ds.KeywordSearch([]string{"church", "romanesque"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("expected empty, got %+v", res)
	}
}

func TestTightestTrees(t *testing.T) {
	ds := openFixture(t, DefaultConfig())
	diocese, ok := ds.VertexByURI("ex:Dioecese_of_Frejus")
	if !ok {
		t.Fatal("diocese missing")
	}
	trees, loose, err := ds.TightestTrees(diocese, []string{"ancient", "roman", "catholic", "history"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if loose != 4 || len(trees) != 1 {
		t.Fatalf("L=%v, %d trees; want 4 and 1", loose, len(trees))
	}
	if trees[0].Root != diocese || len(trees[0].Nodes) != 4 {
		t.Errorf("tree = %+v", trees[0])
	}
}

func TestSearchBatch(t *testing.T) {
	ds := openFixture(t, DefaultConfig())
	kws := []string{"ancient", "roman", "catholic", "history"}
	queries := []Query{
		{Loc: Point{X: 43.51, Y: 4.75}, Keywords: kws, K: 2},
		{Loc: Point{X: 43.17, Y: 5.90}, Keywords: kws, K: 2},
		{Loc: Point{X: 43.51, Y: 4.75}, Keywords: []string{"unknownkeyword"}, K: 1},
	}
	batch, err := ds.SearchBatch(queries, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != 3 {
		t.Fatalf("batch size %d", len(batch))
	}
	// Results must match serial runs, in input order.
	for i, q := range queries {
		want, err := ds.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch[i]) != len(want) {
			t.Fatalf("query %d: %d vs %d results", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j].Place != want[j].Place {
				t.Errorf("query %d result %d differs", i, j)
			}
		}
	}
	// parallelism <= 0 falls back to GOMAXPROCS.
	if _, err := ds.SearchBatch(queries[:1], 0); err != nil {
		t.Fatal(err)
	}
}

func TestNearestPlacesAndWithin(t *testing.T) {
	ds := openFixture(t, DefaultConfig())
	near := ds.NearestPlaces(Point{X: 43.17, Y: 5.90}, 5)
	if len(near) != 2 {
		t.Fatalf("NearestPlaces = %+v", near)
	}
	if ds.URI(near[0].Place) != "ex:Dioecese_of_Frejus" {
		t.Errorf("nearest = %s", ds.URI(near[0].Place))
	}
	if near[0].Dist > near[1].Dist {
		t.Error("not sorted by distance")
	}

	within := ds.PlacesWithin(Point{X: 43.0, Y: 5.0}, Point{X: 44.0, Y: 6.5})
	if len(within) != 1 {
		t.Fatalf("PlacesWithin = %v", within)
	}
	if ds.URI(within[0]) != "ex:Dioecese_of_Frejus" {
		t.Errorf("within = %s", ds.URI(within[0]))
	}
	if got := ds.PlacesWithin(Point{X: 0, Y: 0}, Point{X: 1, Y: 1}); len(got) != 0 {
		t.Errorf("empty region returned %v", got)
	}
}

func TestAlgorithmString(t *testing.T) {
	for a, want := range map[Algorithm]string{AlgoBSP: "BSP", AlgoSPP: "SPP", AlgoSP: "SP", AlgoTA: "TA"} {
		if a.String() != want {
			t.Errorf("%d.String() = %q", int(a), a.String())
		}
	}
	if Algorithm(42).String() != "Algorithm(42)" {
		t.Error("unknown algorithm string")
	}
}

func TestOpenRejectsBadInput(t *testing.T) {
	if _, err := Open(strings.NewReader("not ntriples at all\n"), DefaultConfig()); err == nil {
		t.Error("expected parse error")
	}
	if _, err := OpenFile("/nonexistent/file.nt", DefaultConfig()); err == nil {
		t.Error("expected file error")
	}
}

func TestWeightedRankingConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ranking = WeightedSumRanking{Beta: 0.9}
	ds := openFixture(t, cfg)
	res, err := ds.Search(Query{Loc: Point{X: 43.51, Y: 4.75}, Keywords: []string{"ancient", "roman"}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	// With β=0.9 looseness dominates: the diocese (L=2: roman+catholic at
	// the root... here keywords are ancient+roman; p2 has roman at 0 and
	// ancient at 2 -> L=3; p1 has both at 1 -> L=3). Just check scores
	// follow the weighted formula.
	want := 0.9*res[0].Looseness + 0.1*res[0].Dist
	if math.Abs(res[0].Score-want) > 1e-9 {
		t.Errorf("score %v, want %v", res[0].Score, want)
	}
}

// Non-finite coordinates must be rejected (or yield nothing) at every
// query entry point before they can poison R-tree comparisons.
func TestNonFiniteCoordinatesRejected(t *testing.T) {
	ds := openFixture(t, DefaultConfig())
	nan, inf := math.NaN(), math.Inf(1)
	for _, loc := range []Point{{X: nan, Y: 0}, {X: 0, Y: inf}, {X: nan, Y: nan}} {
		_, _, err := ds.SearchWith(AlgoSP, Query{Loc: loc, Keywords: []string{"roman"}, K: 2}, Options{})
		if !errors.Is(err, ErrBadCoordinate) {
			t.Errorf("SearchWith(%v): err = %v, want ErrBadCoordinate", loc, err)
		}
		if got := ds.NearestPlaces(loc, 3); got != nil {
			t.Errorf("NearestPlaces(%v) = %v, want nil", loc, got)
		}
		if got := ds.PlacesWithin(loc, Point{X: 1, Y: 1}); got != nil {
			t.Errorf("PlacesWithin(%v) = %v, want nil", loc, got)
		}
	}
	_, _, err := ds.SearchWith(AlgoSP, Query{Loc: Point{}, Keywords: []string{"roman"}, K: 1}, Options{MaxDist: nan})
	if !errors.Is(err, ErrBadCoordinate) {
		t.Errorf("NaN MaxDist: err = %v, want ErrBadCoordinate", err)
	}
}

// α is stored in one byte per posting: above 255 distances would wrap
// modulo 256 and the bounds built on them could exceed the true
// looseness. Every constructor must refuse it instead of building a
// wrong index, whether or not the snapshot it loads carries its own α.
func TestAlphaRadiusAbove255Refused(t *testing.T) {
	bad := DefaultConfig()
	bad.AlphaRadius = 300
	wantErr := func(name string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), "AlphaRadius") {
			t.Errorf("%s with AlphaRadius 300: got %v, want a Config.AlphaRadius error", name, err)
		}
	}

	_, err := Open(strings.NewReader(figure1NT), bad)
	wantErr("Open", err)
	ntPath := t.TempDir() + "/fixture.nt"
	if err := os.WriteFile(ntPath, []byte(figure1NT), 0o600); err != nil {
		t.Fatal(err)
	}
	_, err = OpenFile(ntPath, bad)
	wantErr("OpenFile", err)
	_, err = NewDatasetFromGraph(openFixture(t, DefaultConfig()).g, bad)
	wantErr("NewDatasetFromGraph", err)
	b := NewBuilder()
	b.AddPlace("ex:p", Point{X: 1, Y: 1})
	_, err = b.Build(bad)
	wantErr("Builder.Build", err)

	// One snapshot with an α index (which would override the config's)
	// and one without (which would build it).
	for name, cfg := range map[string]Config{"with alpha": DefaultConfig(), "without alpha": {Direction: Outgoing}} {
		path := t.TempDir() + "/fixture.snap"
		if err := openFixture(t, cfg).Save(path); err != nil {
			t.Fatal(err)
		}
		for _, mmap := range []bool{false, true} {
			bad.Mmap = mmap
			_, err = LoadSnapshot(path, bad)
			wantErr(fmt.Sprintf("LoadSnapshot %s, Mmap=%v", name, mmap), err)
		}
	}

	// The largest α that fits is served, and is exact.
	ok := DefaultConfig()
	ok.AlphaRadius = 255
	ds := openFixture(t, ok)
	q := Query{Loc: Point{X: 43.51, Y: 4.75}, Keywords: []string{"ancient", "roman", "catholic", "history"}, K: 2}
	want, _, err := ds.SearchWith(AlgoBSP, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := ds.SearchWith(AlgoSP, q, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("SP at alpha 255 returned %d results, BSP %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Place != want[i].Place || got[i].Score != want[i].Score {
			t.Errorf("result %d: SP at alpha 255 %+v, BSP %+v", i, got[i], want[i])
		}
	}
}
