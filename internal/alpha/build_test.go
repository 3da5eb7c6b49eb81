package alpha

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/mmapfile"
	"ksp/internal/rdf"
	"ksp/internal/rtree"
)

// diffGraph builds a random graph for the differential tests: cycles,
// self-loops, multi-edges (two predicates between the same pair),
// vertices with empty documents, places without out-edges, and — when
// unusedTerms > 0 — a vocabulary whose trailing terms occur nowhere.
// About one vertex in placeEvery is a place.
func diffGraph(seed int64, n, placeEvery, unusedTerms int) *rdf.Graph {
	rng := rand.New(rand.NewSource(seed))
	b := rdf.NewBuilder()
	for i := 0; i < n; i++ {
		v := b.AddBareVertex(fmt.Sprintf("v%d", i))
		for j := rng.Intn(4); j > 0; j-- { // a quarter of the documents stay empty
			// A few frequent terms and a tail spread over several termChunks.
			w := rng.Intn(3 * termChunk)
			if rng.Intn(2) == 0 {
				w = int(rng.ExpFloat64() * 20)
			}
			b.AddTermID(v, b.Vocab.ID(fmt.Sprintf("w%d", w)))
		}
		if placeEvery > 0 && i%placeEvery == 0 {
			b.SetLocation(v, geoPoint(rng.Float64()*100, rng.Float64()*100))
			if rng.Intn(3) == 0 {
				continue // a place that only has in-edges
			}
		}
		for j := rng.Intn(3); j > 0 && i > 0; j-- {
			w := uint32(rng.Intn(n))
			if int(w) >= i {
				w = uint32(rng.Intn(i))
			}
			b.AddEdge(v, w, "p")
			switch rng.Intn(6) {
			case 0:
				b.AddEdge(v, w, "q") // multi-edge
			case 1:
				b.AddEdge(w, v, "q") // two-cycle
			case 2:
				b.AddEdge(v, v, "p") // self-loop
			}
		}
	}
	for i := 0; i < unusedTerms; i++ {
		b.Vocab.ID(fmt.Sprintf("unused%d", i))
	}
	return b.Build()
}

func bulkTree(g *rdf.Graph, places []uint32, fanout int) *rtree.RTree {
	items := make([]rtree.Item, len(places))
	for i, p := range places {
		items[i] = rtree.Item{ID: p, Loc: g.Loc(p)}
	}
	return rtree.Bulk(items, fanout)
}

// chainLen is how far the chain of columnGraph reaches.
const chainLen = 16

// columnGraph builds a graph that pins where a term becomes a column: n
// places whose documents hold "in<k>" in exactly the k places of highest
// vertex ID, for every k up to 12 — so with n = 127 (a column is 64 bytes)
// "in8" is the longest list and "in9" the shortest column, the last place
// sits in a byte of its own, and with n = 1 the universe is one entry —
// and, reached from every place, a chain c1 → … → c16 with "far<k>" on ck:
// within α a column of distance k, the nibble 15 at α = 14, and at α = 15
// a list like everything else.
func columnGraph(n int) *rdf.Graph {
	rng := rand.New(rand.NewSource(int64(n)))
	b := rdf.NewBuilder()
	chain := make([]uint32, chainLen+1)
	for k := 1; k <= chainLen; k++ {
		chain[k] = b.AddBareVertex(fmt.Sprintf("c%d", k))
		b.AddTermID(chain[k], b.Vocab.ID(fmt.Sprintf("far%d", k)))
		if k > 1 {
			b.AddEdge(chain[k-1], chain[k], "next")
		}
	}
	for i := 0; i < n; i++ {
		v := b.AddBareVertex(fmt.Sprintf("p%d", i))
		b.SetLocation(v, geoPoint(rng.Float64()*100, rng.Float64()*100))
		b.AddEdge(v, chain[1], "to")
		for k := 1; k <= 12; k++ {
			if n-i <= k {
				b.AddTermID(v, b.Vocab.ID(fmt.Sprintf("in%d", k)))
			}
		}
	}
	return b.Build()
}

// sameIndex demands that both inverted files of got equal want's, term
// for term and read through Postings, over the whole vocabulary, and that
// got keeps each term in the form its length alone decides: a column iff
// that is smaller than the list and α fits a nibble.
func sameIndex(t *testing.T, label string, got, want *Index, numTerms int) {
	t.Helper()
	if got.Alpha != want.Alpha || got.Dir != want.Dir {
		t.Fatalf("%s: alpha/dir %d/%v, want %d/%v", label, got.Alpha, got.Dir, want.Alpha, want.Dir)
	}
	files := []struct {
		name      string
		got, want *File
	}{{"place", got.PlaceIdx, want.PlaceIdx}, {"node", got.NodeIdx, want.NodeIdx}}
	for _, f := range files {
		if f.got.NumTerms() != numTerms || f.want.NumTerms() != numTerms {
			t.Fatalf("%s: %s NumTerms %d (reference %d), want the vocabulary's %d", label, f.name, f.got.NumTerms(), f.want.NumTerms(), numTerms)
		}
		if f.got.NumPostings() != f.want.NumPostings() {
			t.Fatalf("%s: %s NumPostings %d, want %d", label, f.name, f.got.NumPostings(), f.want.NumPostings())
		}
		for term := 0; term < numTerms; term++ {
			g, err := f.got.Postings(uint32(term), nil)
			if err != nil {
				t.Fatal(err)
			}
			w, err := f.want.Postings(uint32(term), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(g, w) {
				t.Fatalf("%s: %s postings of term %d:\n got %v\nwant %v", label, f.name, term, g, w)
			}
			wantColumn := got.Alpha <= 14 && (f.got.n+1)/2 < 8*len(w)
			if isColumn := f.got.column(uint32(term)) != nil; isColumn != wantColumn {
				t.Fatalf("%s: %s term %d with %d of %d entries: column = %v, want %v", label, f.name, term, len(w), f.got.n, isColumn, wantColumn)
			}
		}
	}
}

// forms counts the terms of an inverted file kept as columns and as
// non-empty lists.
func forms(f *File) (columns, lists int) {
	for t := 0; t < f.NumTerms(); t++ {
		switch r := f.term(uint32(t)); {
		case r.col != nil:
			columns++
		case len(r.w) > 0:
			lists++
		}
	}
	return columns, lists
}

// withProcs runs f at GOMAXPROCS 1 and 4: the build must not depend on
// how many workers share it.
func withProcs(t *testing.T, f func(t *testing.T)) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			f(t)
		})
	}
}

var diffDirs = []rdf.Direction{rdf.Outgoing, rdf.Incoming, rdf.Undirected}

// The build's exactness contract: the map-free build produces the index
// the map-based reference produces, list for list.
func TestBuildMatchesReference(t *testing.T) {
	// 480 vertices, 120 places: fan-out 128 keeps them in the root leaf,
	// 16 gives leaves under a root, 4 a tree of height 4.
	fanouts := []struct{ m, minHeight, maxHeight int }{{128, 1, 1}, {16, 2, 2}, {4, 3, 99}}
	withProcs(t, func(t *testing.T) {
		for seed := int64(1); seed <= 3; seed++ {
			g := diffGraph(seed, 480, 4, int(seed)-1)
			for _, fo := range fanouts {
				tree := bulkTree(g, g.Places(), fo.m)
				if h := tree.Height(); h < fo.minHeight || h > fo.maxHeight {
					t.Fatalf("fan-out %d: height %d, want %d..%d", fo.m, h, fo.minHeight, fo.maxHeight)
				}
				for _, dir := range diffDirs {
					for _, a := range []int{1, 2, 3, 5} {
						label := fmt.Sprintf("seed=%d fanout=%d dir=%v alpha=%d", seed, fo.m, dir, a)
						if g.Vocab.Len() <= termChunk {
							t.Fatalf("vocabulary of %d terms fits one termChunk of %d: chunk borders go untested", g.Vocab.Len(), termChunk)
						}
						want := referenceBuild(g, tree, a, dir, g.Places())
						sameIndex(t, label, Build(g, tree, a, dir), want, g.Vocab.Len())
					}
				}
			}
		}
		// Where a list becomes a column, on either side of the line: 127
		// places leave the last in a byte of its own, and one place is a
		// universe of one. 130 give four workers 33 places each and 3 give
		// them one each, which the fill must round to even blocks: two
		// workers writing nibbles of one byte is what the race detector
		// reports here (with 3 places every time — no other write shares
		// the word).
		for _, n := range []int{1, 3, 127, 130} {
			g := columnGraph(n)
			tree := bulkTree(g, g.Places(), 4)
			term := func(w string) uint32 {
				id, ok := g.Vocab.Lookup(w)
				if !ok {
					t.Fatalf("no term %q", w)
				}
				return id
			}
			for _, a := range []int{1, 14, 15} {
				label := fmt.Sprintf("columnGraph(%d) alpha=%d", n, a)
				ix := Build(g, tree, a, rdf.Outgoing)
				sameIndex(t, label, ix, referenceBuild(g, tree, a, rdf.Outgoing, g.Places()), g.Vocab.Len())
				place := ix.PlaceIdx
				columns, lists := forms(place)
				nodeColumns, _ := forms(ix.NodeIdx)
				switch {
				case a == 15:
					if columns+nodeColumns != 0 || lists == 0 {
						t.Errorf("%s: %d place and %d node columns, %d place lists: a distance of 15 does not fit a nibble", label, columns, nodeColumns, lists)
					}
				case n == 127:
					if place.column(term("in8")) != nil || place.column(term("in9")) == nil {
						t.Errorf("%s: in8 column = %v, in9 column = %v, want the line between them", label, place.column(term("in8")) != nil, place.column(term("in9")) != nil)
					}
					if col := place.column(term("far1")); len(col) != 64 || col[63] != 2 {
						t.Errorf("%s: last byte of far1's column = %v, want the last place's nibble alone", label, col)
					}
					if a == 14 && nibble(place.column(term("far14")), 0) != 15 {
						t.Errorf("%s: far14 is not stored as nibble 15", label)
					}
				case n == 1:
					if col := place.column(term("in1")); len(col) != 1 || col[0] != 1 {
						t.Errorf("%s: in1's column = %v, want the one nibble of a universe of one", label, col)
					}
				}
			}
		}
	})
}

// strTiles cuts the places into n tiles the way PartitionSpatial does;
// within a tile the places are in STR order, not ascending.
func strTiles(g *rdf.Graph, n int) [][]uint32 {
	places := g.Places()
	items := make([]rtree.Item, len(places))
	for i, p := range places {
		items[i] = rtree.Item{ID: p, Loc: g.Loc(p)}
	}
	per := (len(items) + n - 1) / n
	rtree.STRSort(items, per)
	tiles := make([][]uint32, n)
	for i := range tiles {
		lo, hi := min(i*per, len(items)), min((i+1)*per, len(items))
		for _, it := range items[lo:hi] {
			tiles[i] = append(tiles[i], it.ID)
		}
	}
	return tiles
}

// BuildFor on a strict subset handed over in STR order, as
// PartitionSpatial hands its tiles over.
func TestBuildForSubsetMatchesReference(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		g := diffGraph(5, 480, 4, 2)
		unsorted := 0
		for ti, tile := range strTiles(g, 3) {
			if !slices.IsSorted(tile) {
				unsorted++
			}
			for _, dir := range diffDirs {
				for _, a := range []int{1, 3} {
					tree := bulkTree(g, tile, 8)
					label := fmt.Sprintf("tile=%d dir=%v alpha=%d", ti, dir, a)
					sameIndex(t, label, BuildFor(g, tree, a, dir, tile), referenceBuild(g, tree, a, dir, tile), g.Vocab.Len())
				}
			}
		}
		if unsorted == 0 {
			t.Fatal("every tile came out ascending: the test no longer covers STR order")
		}
		// Tiles of the column fixture: the line between list and column
		// moves with the tile's size (43, 42 and 42 places).
		g = columnGraph(127)
		for ti, tile := range strTiles(g, 3) {
			for _, a := range []int{1, 14, 15} {
				tree := bulkTree(g, tile, 4)
				label := fmt.Sprintf("columnGraph tile=%d alpha=%d", ti, a)
				sameIndex(t, label, BuildFor(g, tree, a, rdf.Outgoing, tile), referenceBuild(g, tree, a, rdf.Outgoing, tile), g.Vocab.Len())
			}
		}
	})
}

func TestBuildDegenerateMatchesReference(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		cases := map[string]*rdf.Graph{
			"zero places": diffGraph(7, 60, 0, 3),
			"one place":   diffGraph(8, 60, 1000, 3),
			"no vertices": rdf.NewBuilder().Build(),
		}
		for name, g := range cases {
			for _, dir := range diffDirs {
				for _, a := range []int{0, 1, 3, MaxRadius} {
					tree := bulkTree(g, g.Places(), 8)
					label := fmt.Sprintf("%s dir=%v alpha=%d", name, dir, a)
					sameIndex(t, label, Build(g, tree, a, dir), referenceBuild(g, tree, a, dir, g.Places()), g.Vocab.Len())
				}
			}
		}
	})
}

// A tile's index restricted from the parent's equals the one the
// reference builds for the tile, term for term and form for form, on STR
// tilings, also when the parent's place file is served mapped from a file,
// and on the column fixture, whose tiles turn parent lists into columns
// ("in9" to "in12" sit in one corner) and parent columns into lists.
func TestRestrictMatchesBuildFor(t *testing.T) {
	withProcs(t, func(t *testing.T) {
		type fixture struct {
			name   string
			g      *rdf.Graph
			alphas []int
			dirs   []rdf.Direction
		}
		for _, fx := range []fixture{
			{"diffGraph", diffGraph(9, 480, 4, 2), []int{3}, diffDirs},
			{"columnGraph", columnGraph(127), []int{1, 14, 15}, []rdf.Direction{rdf.Outgoing}},
		} {
			g := fx.g
			for _, dir := range fx.dirs {
				for _, a := range fx.alphas {
					parent := Build(g, bulkTree(g, g.Places(), 8), a, dir)
					mapped := mappedPlaces(t, parent.PlaceIdx, a, g.Places())
					parents := map[string]*Index{
						"memory": parent,
						"mapped": {Alpha: parent.Alpha, Dir: parent.Dir, PlaceIdx: mapped, NodeIdx: parent.NodeIdx},
					}
					toColumn, toList := 0, 0 // terms that change form from parent to tile
					for _, n := range []int{2, 4, 7} {
						for ti, tile := range strTiles(g, n) {
							want := referenceBuild(g, bulkTree(g, tile, 8), a, dir, tile)
							for name, from := range parents {
								got := from.Restrict(bulkTree(g, tile, 8))
								sameIndex(t, fmt.Sprintf("%s dir=%v alpha=%d n=%d tile=%d parent=%s", fx.name, dir, a, n, ti, name), got, want, g.Vocab.Len())
								for term := uint32(0); int(term) < got.PlaceIdx.NumTerms(); term++ {
									r, was := got.PlaceIdx.term(term), parent.PlaceIdx.term(term)
									switch {
									case r.col != nil && was.col == nil:
										toColumn++
									case len(r.w) > 0 && was.col != nil:
										toList++
									}
								}
							}
						}
					}
					if a <= 14 && (toColumn == 0 || toList == 0) {
						t.Errorf("%s dir=%v alpha=%d: %d parent lists became tile columns and %d parent columns tile lists: the test no longer covers both", fx.name, dir, a, toColumn, toList)
					}
				}
			}
		}
	})
}

// mappedPlaces serves the place file f of an index of the given radius over
// places the way a snapshot serves it: its image written to a file,
// mapped and checked by OpenPlaces. The file closes when the test ends.
func mappedPlaces(t *testing.T, f *File, radius int, places []uint32) *File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "place.img")
	if err := os.WriteFile(path, f.Image(), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := mmapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { src.Close() })
	img, err := src.Range(0, src.Size())
	if err != nil {
		t.Fatal(err)
	}
	view, err := OpenPlaces(img, radius, places)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// The fill's blocks start on even ordinals, whatever the place and worker
// counts, and there are never more of them than workers: a column byte
// holds two places, and only one worker may write it. (The race detector
// sees the violation in TestBuildMatchesReference only when two workers
// happen to take neighbouring blocks.)
func TestFillBlocksStartOnEvenOrdinals(t *testing.T) {
	for workers := 1; workers <= 9; workers++ {
		for n := 0; n <= 300; n++ {
			per := blockLen(n, workers)
			if per < 1 || per%2 != 0 {
				t.Fatalf("blockLen(%d, %d) = %d, want even and positive", n, workers, per)
			}
			if blocks := (n + per - 1) / per; blocks > workers {
				t.Fatalf("blockLen(%d, %d) = %d cuts %d blocks", n, workers, per, blocks)
			}
		}
	}
}

func TestCheckRadius(t *testing.T) {
	for r, ok := range map[int]bool{-1: false, 0: true, 3: true, 255: true, 256: false, 300: false} {
		if err := CheckRadius(r); (err == nil) != ok {
			t.Errorf("CheckRadius(%d) = %v, want ok=%v", r, err, ok)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Build at radius 300 did not panic: distances would wrap modulo 256")
		}
	}()
	g := diffGraph(1, 20, 4, 0)
	Build(g, bulkTree(g, g.Places(), 8), 300, rdf.Outgoing)
}

// TestBuildAllocGuard is the build's allocation gate, in the style of
// TestBFSWorkGuard: counts repeat, wall clock does not. On the Yago-like
// fixture Build may allocate at most three times the bytes of the index
// it returns (the map-based build allocated about ten times those of an
// index of lists alone) and a number of objects in the order of places +
// terms, not of postings; and the index it returns takes at most half the
// bytes it would with every term a list.
func TestBuildAllocGuard(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(6000, 7))
	tree := bulkTree(g, g.Places(), rtree.DefaultMaxEntries)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix := Build(g, tree, 3, rdf.Outgoing)
	runtime.ReadMemStats(&after)

	size := ix.MemSize()
	bytes := int64(after.TotalAlloc - before.TotalAlloc)
	objects := int64(after.Mallocs - before.Mallocs)
	places, nodes := ix.NumPostings()
	// What invindex.MemIndex.MemSize says of the same two files as lists.
	lists := 2*8*int64(g.Vocab.Len()+1) + 8*(places+nodes)
	t.Logf("index %d bytes, %.2f x the %d of lists alone (%d + %d postings); build allocated %d bytes (%.2f x) in %d objects; %d places, %d terms",
		size, float64(size)/float64(lists), lists, places, nodes, bytes, float64(bytes)/float64(size), objects, len(g.Places()), g.Vocab.Len())
	if 2*size > lists {
		t.Errorf("the index takes %d bytes, more than half the %d of lists alone", size, lists)
	}
	if bytes > 3*size {
		t.Errorf("build allocated %d bytes, more than 3 x the %d of the index", bytes, size)
	}
	if limit := int64(len(g.Places()) + g.Vocab.Len()); objects > limit {
		t.Errorf("build allocated %d objects, more than places + terms = %d", objects, limit)
	}
	if postings := places + nodes; objects > postings/10 {
		t.Errorf("build allocated %d objects for %d postings: that is O(postings)", objects, postings)
	}
}

func benchBuild(b *testing.B, build func(*rdf.Graph, *rtree.RTree, int, rdf.Direction, []uint32) *Index) {
	g := gen.Generate(gen.YagoConfig(12000, 2))
	tree := bulkTree(g, g.Places(), rtree.DefaultMaxEntries)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		build(g, tree, 3, rdf.Outgoing, g.Places())
	}
}

func BenchmarkBuild(b *testing.B)          { benchBuild(b, BuildFor) }
func BenchmarkBuildReference(b *testing.B) { benchBuild(b, referenceBuild) }

// BenchmarkRestrict cuts the Yago-like index into the four tiles
// PartitionSpatial makes of it.
func BenchmarkRestrict(b *testing.B) {
	g := gen.Generate(gen.YagoConfig(12000, 2))
	parent := Build(g, bulkTree(g, g.Places(), rtree.DefaultMaxEntries), 3, rdf.Outgoing)
	var trees []*rtree.RTree
	for _, tile := range strTiles(g, 4) {
		trees = append(trees, bulkTree(g, tile, rtree.DefaultMaxEntries))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tree := range trees {
			parent.Restrict(tree)
		}
	}
}
