package alpha

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"ksp/internal/invindex"
	"ksp/internal/rdf"
	"ksp/internal/rtree"
)

// mapView is the original map-based QueryView, kept here as the
// reference implementation for the bit-identity property: per keyword,
// entry-ID -> distance maps built from the same posting lists.
type mapView struct {
	alpha     int
	placeDist []map[uint32]uint8
	nodeDist  []map[uint32]uint8
}

func loadMapView(t *testing.T, ix *Index, terms []uint32) *mapView {
	t.Helper()
	mv := &mapView{
		alpha:     ix.Alpha,
		placeDist: make([]map[uint32]uint8, len(terms)),
		nodeDist:  make([]map[uint32]uint8, len(terms)),
	}
	var buf []invindex.Posting
	var err error
	for i, term := range terms {
		buf, err = ix.PlaceIdx.Postings(term, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		mp := make(map[uint32]uint8, len(buf))
		for _, p := range buf {
			mp[p.ID] = p.Weight
		}
		mv.placeDist[i] = mp
		buf, err = ix.NodeIdx.Postings(term, buf[:0])
		if err != nil {
			t.Fatal(err)
		}
		mn := make(map[uint32]uint8, len(buf))
		for _, p := range buf {
			mn[p.ID] = p.Weight
		}
		mv.nodeDist[i] = mn
	}
	return mv
}

func (mv *mapView) placeBound(p uint32) float64 {
	lb := 1.0
	for i := range mv.placeDist {
		if d, ok := mv.placeDist[i][p]; ok {
			lb += float64(d)
		} else {
			lb += float64(mv.alpha + 1)
		}
	}
	return lb
}

func (mv *mapView) nodeBound(n uint32) float64 {
	lb := 1.0
	for i := range mv.nodeDist {
		if d, ok := mv.nodeDist[i][n]; ok {
			lb += float64(d)
		} else {
			lb += float64(mv.alpha + 1)
		}
	}
	return lb
}

// randomGraph builds a synthetic graph with places, edges and skewed
// term documents — sixty frequent terms, which the index keeps as columns,
// and a tail of rare ones, which stay lists — plus its R-tree, of fan-out
// 4: from about 1,000 vertices on it has enough nodes for a rare term to
// stay a list in the node file too.
func randomGraph(t testing.TB, seed int64, n int) (*rdf.Graph, *rtree.RTree) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := rdf.NewBuilder()
	for i := 0; i < n; i++ {
		v := b.AddBareVertex(fmt.Sprintf("v%d", i))
		for j := 0; j <= rng.Intn(4); j++ {
			b.AddTermID(v, b.Vocab.ID(fmt.Sprintf("w%d", rng.Intn(60))))
		}
		if rng.Intn(6) == 0 {
			b.AddTermID(v, b.Vocab.ID(fmt.Sprintf("rare%d", rng.Intn(200))))
		}
		if i > 0 {
			b.AddEdge(uint32(rng.Intn(i)), v, "p")
			b.AddEdge(v, uint32(rng.Intn(i)), "q")
		}
		if i%4 == 0 {
			b.SetLocation(v, geoPoint(rng.Float64()*100, rng.Float64()*100))
		}
	}
	g := b.Build()
	items := make([]rtree.Item, 0, len(g.Places()))
	for _, p := range g.Places() {
		items = append(items, rtree.Item{ID: p, Loc: g.Loc(p)})
	}
	return g, rtree.Bulk(items, 4)
}

// termsByForm splits the vocabulary into the terms both files keep as
// columns, those both keep as non-empty lists, and those kept one way in
// one file and the other way in the other.
func termsByForm(t *testing.T, ix *Index) (columns, lists, split []uint32) {
	t.Helper()
	for term := uint32(0); int(term) < ix.PlaceIdx.NumTerms(); term++ {
		p, n := ix.PlaceIdx.term(term), ix.NodeIdx.term(term)
		switch {
		case p.col != nil && n.col != nil:
			columns = append(columns, term)
		case len(p.w) > 0 && len(n.w) > 0:
			lists = append(lists, term)
		case p.col != nil || n.col != nil:
			split = append(split, term)
		}
	}
	if len(columns) < 2 || len(lists) < 2 {
		t.Fatalf("%d terms are columns and %d are lists in both files: the fixture no longer mixes the two forms", len(columns), len(lists))
	}
	return columns, lists, split
}

// formQueries returns keyword sets that pin how a view combines the two
// forms: all columns, all lists, both mixed, a column and a list each
// listed twice, terms kept differently by the two files, and terms no
// file knows among the others.
func formQueries(t *testing.T, ix *Index, rng *rand.Rand) [][]uint32 {
	columns, lists, split := termsByForm(t, ix)
	pick := func(from []uint32) uint32 { return from[rng.Intn(len(from))] }
	c1, c2, l1, l2 := pick(columns), pick(columns), pick(lists), pick(lists)
	qs := [][]uint32{
		{c1, c2},
		{l1, l2},
		{c1, l1, c2, l2},
		{l1, c1},
		{c1, c1, l1, l1},
		{c1, 100000, l1, ^uint32(0)},
	}
	if len(split) > 0 {
		qs = append(qs, []uint32{pick(split), c1, l1})
	}
	return qs
}

// The tentpole property: the dense-table QueryView bounds are
// bit-identical to the map-based implementation across datasets × α ×
// keyword sets (repeated terms included), probed at every vertex, every
// tree node, and IDs beyond both tables and both universes. The keyword
// sets mix terms the index keeps as columns, which the view reads in
// place, with terms it keeps as lists, which the view scatters
// (formQueries); at α = 15 every term is a list. Float equality here is
// exact (==), not approximate.
func TestFlatBoundsBitIdenticalToMaps(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, alphaRadius := range []int{1, 3, 15} {
			g, tree := randomGraph(t, seed, 1200)
			ix := Build(g, tree, alphaRadius, rdf.Outgoing)
			rng := rand.New(rand.NewSource(seed * 1000))
			var queries [][]uint32
			if alphaRadius <= 14 {
				queries = formQueries(t, ix, rng)
			}
			for trial := 0; trial < 20; trial++ {
				m := 1 + rng.Intn(6)
				terms := make([]uint32, m)
				for i := range terms {
					// Mix known terms and IDs beyond the vocabulary.
					terms[i] = uint32(rng.Intn(70))
				}
				queries = append(queries, terms)
			}
			for _, terms := range queries {
				qv, err := ix.LoadQuery(terms)
				if err != nil {
					t.Fatal(err)
				}
				mv := loadMapView(t, ix, terms)
				vertices := []uint32{999999, ^uint32(0)}
				for v := 0; v < g.NumVertices()+4; v++ {
					vertices = append(vertices, uint32(v))
				}
				for _, p := range vertices {
					if got, want := qv.PlaceBound(p), mv.placeBound(p); got != want {
						t.Fatalf("seed %d α=%d terms %v: PlaceBound(%d) = %v, map %v",
							seed, alphaRadius, terms, p, got, want)
					}
				}
				probes := []uint32{0, 1, 999999, ^uint32(0)}
				for n := uint32(0); int(n) < 2*tree.Len()+4; n++ {
					probes = append(probes, n)
				}
				for _, n := range probes {
					if got, want := qv.NodeBound(n), mv.nodeBound(n); got != want {
						t.Fatalf("seed %d α=%d terms %v: NodeBound(%d) = %v, map %v",
							seed, alphaRadius, terms, n, got, want)
					}
				}
				qv.Release()
			}
		}
	}
}

// checkView compares every bound of qv with the map reference for terms.
func checkView(t *testing.T, label string, ix *Index, g *rdf.Graph, qv *QueryView, terms []uint32) {
	t.Helper()
	mv := loadMapView(t, ix, terms)
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		if got, want := qv.PlaceBound(v), mv.placeBound(v); got != want {
			t.Fatalf("%s: terms %v: PlaceBound(%d) = %v, want %v", label, terms, v, got, want)
		}
		if got, want := qv.NodeBound(v), mv.nodeBound(v); got != want {
			t.Fatalf("%s: terms %v: NodeBound(%d) = %v, want %v", label, terms, v, got, want)
		}
	}
}

// Released views must come back from the pool with correct contents for
// the new keyword set — cells a previous query wrote must never leak
// into bounds.
func TestQueryViewPoolReuse(t *testing.T) {
	g, tree := randomGraph(t, 7, 1200)
	ix := Build(g, tree, 2, rdf.Outgoing)
	rng := rand.New(rand.NewSource(99))
	randomTerms := func() []uint32 {
		terms := make([]uint32, 1+rng.Intn(5))
		for i := range terms {
			terms[i] = uint32(rng.Intn(70))
		}
		return terms
	}
	for round := 0; round < 50; round++ {
		terms := randomTerms()
		qv, err := ix.LoadQuery(terms)
		if err != nil {
			t.Fatal(err)
		}
		checkView(t, fmt.Sprintf("round %d", round), ix, g, qv, terms)
		qv.Release()
		qv.Release() // double release must be a no-op
	}

	// The pool hands views back at its own discretion, so the recycling
	// itself is pinned on one view filled over and over: keyword counts
	// change between fills, a fill with no known term leaves every cell
	// stale, and the epoch stamp wraps on the way.
	qv := &QueryView{}
	fill := func(label string, terms []uint32) {
		t.Helper()
		if err := qv.fill(ix, terms); err != nil {
			t.Fatal(err)
		}
		checkView(t, label, ix, g, qv, terms)
	}
	for round := 0; round < 20; round++ {
		fill(fmt.Sprintf("refill %d", round), randomTerms())
	}
	fill("no known term", []uint32{5000, 5001})
	// From columns to lists and back: a refill must not read a column the
	// fill before it borrowed, nor a cell it scattered, and borrows exactly
	// the columns of its own keywords.
	columns, lists, _ := termsByForm(t, ix)
	for round, terms := range [][]uint32{columns, lists, columns[:1], {lists[0], columns[0]}, lists[:1], {}, columns} {
		fill(fmt.Sprintf("forms %d", round), terms)
		want := 0
		for _, term := range terms {
			if ix.PlaceIdx.column(term) != nil {
				want++
			}
		}
		if got := len(qv.place.cols); got != want {
			t.Errorf("forms %d: the view borrows %d place columns, its keywords have %d", round, got, want)
		}
	}
	// Release hands the columns back: a pooled view must not keep the
	// index it last served alive.
	qv.owner = ix
	qv.Release()
	if len(qv.place.cols)+len(qv.node.cols) != 0 || qv.place.file != nil || qv.node.file != nil {
		t.Errorf("a released view still holds %d place and %d node columns", len(qv.place.cols), len(qv.node.cols))
	}
	for _, col := range append(qv.place.cols[:cap(qv.place.cols)], qv.node.cols[:cap(qv.node.cols)]...) {
		if col != nil {
			t.Fatal("a released view still points at a column beyond its length")
		}
	}
	qv.place.epoch, qv.node.epoch = ^uint32(0)-1, ^uint32(0)-1
	for round := 0; round < 4; round++ {
		fill(fmt.Sprintf("epoch wrap %d", round), randomTerms())
	}
	if qv.place.epoch != 3 || qv.node.epoch != 3 {
		t.Errorf("epochs after the wrap = %d, %d, want 3 (cleared once, then counting on)", qv.place.epoch, qv.node.epoch)
	}
	if qv, err := ix.LoadQuery(make([]uint32, maxTerms+1)); err == nil {
		qv.Release()
		t.Errorf("LoadQuery accepted %d terms", maxTerms+1)
	}
}

// A posting list that is not strictly ID-ascending would count one
// keyword twice for an entry (or skip the order the scatter relies on)
// and could lift a bound above Lemma 2's value. The views a query loads
// are read without a check, so OpenPlaces and OpenNodes refuse such a
// list, in either file, as they refuse an image whose length is not the
// one its header gives; the undamaged images open and serve the bounds
// of the index they were written from.
func TestOpenRejectsUnsortedPostings(t *testing.T) {
	g, tree := randomGraph(t, 5, 1200)
	built := Build(g, tree, 2, rdf.Outgoing)
	ix := built
	places := g.Places()
	openPlaces := func(img []byte) (*File, error) { return OpenPlaces(img, 2, places) }
	openNodes := func(img []byte) (*File, error) { return OpenNodes(img, 2) }
	for _, c := range []struct {
		name string
		file *File
		open func([]byte) (*File, error)
	}{{"place", built.PlaceIdx, openPlaces}, {"node", built.NodeIdx, openNodes}} {
		f := c.file
		// A list of at least two entries.
		term := uint32(0)
		for ; int(term) < f.NumTerms() && len(f.term(term).w) < 2; term++ {
		}
		if int(term) == f.NumTerms() {
			t.Fatalf("%s file: no list of two entries", c.name)
		}
		at := len(f.img) - len(f.postIDs) - len(f.postW) + 4*int(le.Uint64(f.table[8*term:])&listMask)
		first, second := le.Uint32(f.img[at:]), le.Uint32(f.img[at+4:])
		damaged := map[string]func(img []byte) []byte{
			"duplicated entry": func(img []byte) []byte { le.PutUint32(img[at+4:], first); return img },
			"out of order": func(img []byte) []byte {
				le.PutUint32(img[at:], second)
				le.PutUint32(img[at+4:], first)
				return img
			},
			"a byte short": func(img []byte) []byte { return img[:len(img)-1] },
			"a byte long":  func(img []byte) []byte { return append(img, 0) },
			"no header":    func(img []byte) []byte { return img[:HeaderLen-1] },
		}
		for name, hurt := range damaged {
			if _, err := c.open(hurt(slices.Clone(f.Image()))); !errors.Is(err, errImage) {
				t.Errorf("%s file, %s: got %v, want a damaged image", c.name, name, err)
			}
		}
		got, err := c.open(slices.Clone(f.Image()))
		if err != nil {
			t.Fatalf("%s file: %v", c.name, err)
		}
		if got.NumPostings() != f.NumPostings() || got.NumTerms() != f.NumTerms() {
			t.Errorf("%s file: %d postings over %d terms, built %d over %d", c.name, got.NumPostings(), got.NumTerms(), f.NumPostings(), f.NumTerms())
		}
		if c.name == "place" {
			ix = &Index{Alpha: ix.Alpha, Dir: ix.Dir, PlaceIdx: got, NodeIdx: ix.NodeIdx}
		} else {
			ix = &Index{Alpha: ix.Alpha, Dir: ix.Dir, PlaceIdx: ix.PlaceIdx, NodeIdx: got}
		}
	}
	terms := []uint32{0, 3, 5, 61, 62, 63}
	qv, err := ix.LoadQuery(terms)
	if err != nil {
		t.Fatal(err)
	}
	checkView(t, "opened", built, g, qv, terms)
	qv.Release()
}

// PlaceBound and NodeBound must allocate nothing, and a warm
// LoadQuery/Release cycle must stay allocation-free too (pooled view,
// pooled scratch, reused tables).
func TestBoundsZeroAllocWarm(t *testing.T) {
	g, tree := randomGraph(t, 13, 400)
	ix := Build(g, tree, 3, rdf.Outgoing)
	terms := []uint32{3, 17, 42}
	qv, err := ix.LoadQuery(terms)
	if err != nil {
		t.Fatal(err)
	}
	places := g.Places()
	var sink float64
	allocs := testing.AllocsPerRun(200, func() {
		for _, p := range places[:20] {
			sink += qv.PlaceBound(p)
		}
		for n := uint32(0); n < 20; n++ {
			sink += qv.NodeBound(n)
		}
	})
	if allocs != 0 {
		t.Errorf("PlaceBound/NodeBound allocated %v times per run, want 0", allocs)
	}
	qv.Release()

	// Warm the pool, then require steady-state LoadQuery to be
	// allocation-free as well. The race detector makes sync.Pool drop
	// Puts at random, so the pooled half only holds without it (CI's
	// bench-guard job runs it race-free).
	if raceEnabled {
		t.Skip("sync.Pool drops entries under the race detector")
	}
	for i := 0; i < 10; i++ {
		v, err := ix.LoadQuery(terms)
		if err != nil {
			t.Fatal(err)
		}
		v.Release()
	}
	allocs = testing.AllocsPerRun(100, func() {
		v, err := ix.LoadQuery(terms)
		if err != nil {
			t.Fatal(err)
		}
		sink += v.PlaceBound(places[0])
		v.Release()
	})
	if allocs != 0 {
		t.Errorf("warm LoadQuery allocated %v times per run, want 0", allocs)
	}
	_ = sink
}
