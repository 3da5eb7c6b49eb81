package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"ksp/internal/alpha"
	"ksp/internal/core"
	"ksp/internal/gen"
	"ksp/internal/geo"
	"ksp/internal/paperdata"
	"ksp/internal/rdf"
	"ksp/internal/reach"
	"ksp/internal/rtree"
)

// imageLayout locates the arrays and trailers of an image, as Write
// documents its layout, so that a test can damage one array and
// recompute every trailer.
type imageLayout struct {
	raw      []byte
	arrays   map[string][2]int // byte span of each array
	sections [][2]int          // [start, trailer) of each section
}

func layoutOf(t testing.TB, raw []byte) *imageLayout {
	t.Helper()
	l := &imageLayout{raw: raw, arrays: make(map[string][2]int)}
	head := func(i int) int { return int(binary.LittleEndian.Uint32(raw[4*i:])) }
	n, e, p := head(hVertices), head(hEdges), head(hPlaces)
	type array struct {
		name string
		size int
	}
	off := 0
	section := func(arrays ...array) {
		start := off
		for _, a := range arrays {
			l.arrays[a.name] = [2]int{off, off + a.size}
			off = (off + a.size + 7) &^ 7
		}
		off += (4 - off%8 + 8) % 8
		l.sections = append(l.sections, [2]int{start, off})
		off += 4
	}
	section(array{"header", 4 * headerWords})
	section(array{"termBlob", head(hTermBytes)}, array{"termOff", 4 * (head(hTerms) + 1)}, array{"termSort", 4 * head(hTerms)})
	section(array{"uriBlob", head(hURIBytes)}, array{"uriOff", 4 * (n + 1)}, array{"uriSort", 4 * n})
	section(array{"predBlob", head(hPredBytes)}, array{"predOff", 4 * (head(hPreds) + 1)},
		array{"outOff", 4 * (n + 1)}, array{"outEdges", 4 * e}, array{"outPreds", 4 * e},
		array{"inOff", 4 * (n + 1)}, array{"inEdges", 4 * e})
	section(array{"docOff", 4 * (n + 1)}, array{"docTerms", 4 * head(hDocTerms)})
	section(array{"places", 4 * p}, array{"placeOrd", 4 * n}, array{"coords", 16 * p})
	nodes := head(hNodes)
	section(array{"rects", 32 * nodes}, array{"treeOff", 4 * (nodes + 1)}, array{"children", 4 * max(nodes-1, 0)},
		array{"itemIDs", 4 * p}, array{"itemLocs", 16 * p})
	if head(hAlphaRadius) > 0 {
		size, err := alpha.PlaceImageLen(raw[off:], l.u32s("places"))
		if err != nil {
			t.Fatal(err)
		}
		section(array{"alphaPlace", size})
		if size, err = alpha.NodeImageLen(raw[off:]); err != nil {
			t.Fatal(err)
		}
		section(array{"alphaNode", size})
	}
	if head(hFlags)&flagReach != 0 {
		comps := head(hReachComps)
		section(array{"comp", 4 * head(hReachVerts)}, array{"linOff", 4 * (comps + 1)}, array{"lin", 4 * head(hReachIn)},
			array{"loutOff", 4 * (comps + 1)}, array{"lout", 4 * head(hReachOut)}, array{"termVert", 4 * head(hTerms)})
	}
	if off != len(raw) {
		t.Fatalf("the layout covers %d bytes of %d", off, len(raw))
	}
	return l
}

func (l *imageLayout) bytes(name string) []byte {
	span := l.arrays[name]
	return l.raw[span[0]:span[1]]
}

func (l *imageLayout) u32s(name string) []uint32 {
	b := l.bytes(name)
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return out
}

func (l *imageLayout) put(name string, i int, v uint32) {
	binary.LittleEndian.PutUint32(l.bytes(name)[4*i:], v)
}

func (l *imageLayout) f64(name string, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(l.bytes(name)[8*i:]))
}

func putF64(l *imageLayout, name string, i int, f float64) {
	binary.LittleEndian.PutUint64(l.bytes(name)[8*i:], math.Float64bits(f))
}

// resummed returns a copy of the image with every trailer recomputed.
func (l *imageLayout) resummed() []byte {
	out := slices.Clone(l.raw)
	for _, s := range l.sections {
		binary.LittleEndian.PutUint32(out[s[1]:], crc32.ChecksumIEEE(out[s[0]:s[1]]))
	}
	return out
}

// sameGraph demands that got answer every accessor as want does.
func sameGraph(t testing.TB, label string, got, want *rdf.Graph) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("%s: %s", label, fmt.Sprintf(format, args...))
	}
	if got.NumVertices() != want.NumVertices() || got.NumEdges() != want.NumEdges() || got.NumPredNames() != want.NumPredNames() {
		fail("%d vertices, %d edges, %d predicates; want %d, %d, %d", got.NumVertices(), got.NumEdges(), got.NumPredNames(),
			want.NumVertices(), want.NumEdges(), want.NumPredNames())
	}
	if got.Analyzer() != want.Analyzer() || got.Vocab.Len() != want.Vocab.Len() {
		fail("analyzer %+v with %d terms, want %+v with %d", got.Analyzer(), got.Vocab.Len(), want.Analyzer(), want.Vocab.Len())
	}
	if !slices.Equal(got.Places(), want.Places()) {
		fail("Places %v, want %v", got.Places(), want.Places())
	}
	for v := uint32(0); int(v) < want.NumVertices(); v++ {
		if got.URI(v) != want.URI(v) {
			fail("URI(%d) = %q, want %q", v, got.URI(v), want.URI(v))
		}
		if id, ok := got.VertexByURI(want.URI(v)); !ok || id != v {
			fail("VertexByURI(%q) = %d, %v; want %d", want.URI(v), id, ok, v)
		}
		if !slices.Equal(got.Out(v), want.Out(v)) || !slices.Equal(got.In(v), want.In(v)) {
			fail("vertex %d: Out %v, In %v; want %v, %v", v, got.Out(v), got.In(v), want.Out(v), want.In(v))
		}
		if !slices.Equal(got.OutPreds(v), want.OutPreds(v)) {
			fail("OutPreds(%d) = %v, want %v", v, got.OutPreds(v), want.OutPreds(v))
		}
		if !slices.Equal(got.Doc(v), want.Doc(v)) {
			fail("Doc(%d) = %v, want %v", v, got.Doc(v), want.Doc(v))
		}
		for _, term := range append(slices.Clone(want.Doc(v)), 0, 1, uint32(want.Vocab.Len())) {
			if got.HasTerm(v, term) != want.HasTerm(v, term) {
				fail("HasTerm(%d, %d) = %v", v, term, got.HasTerm(v, term))
			}
		}
		if got.IsPlace(v) != want.IsPlace(v) || got.Loc(v) != want.Loc(v) {
			fail("vertex %d: IsPlace %v at %v, want %v at %v", v, got.IsPlace(v), got.Loc(v), want.IsPlace(v), want.Loc(v))
		}
	}
	names := func(g *rdf.Graph) []string {
		var out []string
		for i := 0; i < g.NumPredNames(); i++ {
			out = append(out, g.PredName(uint32(i)))
		}
		return out
	}
	if a, b := names(got), names(want); !slices.Equal(a, b) {
		fail("predicate names %q, want %q", a, b)
	}
	for term := uint32(0); int(term) < want.Vocab.Len(); term++ {
		if got.Vocab.Term(term) != want.Vocab.Term(term) {
			fail("Term(%d) = %q, want %q", term, got.Vocab.Term(term), want.Vocab.Term(term))
		}
		if id, ok := got.Vocab.Lookup(want.Vocab.Term(term)); !ok || id != term {
			fail("Lookup(%q) = %d, %v; want %d", want.Vocab.Term(term), id, ok, term)
		}
	}
	for _, miss := range []string{"", "\x00", "zzzz~", "\xff\xff"} {
		a, aok := got.Vocab.Lookup(miss)
		b, bok := want.Vocab.Lookup(miss)
		if aok != bok || aok && a != b {
			fail("Lookup(%q) = %d, %v; want %d, %v", miss, a, aok, b, bok)
		}
		v, vok := got.VertexByURI(miss)
		w, wok := want.VertexByURI(miss)
		if v != w || vok != wok {
			fail("VertexByURI(%q) = %d, %v; want %d, %v", miss, v, vok, w, wok)
		}
	}
}

// shapeGraphs are the graphs the accessor identity test runs on: both
// generators, the paper's Figure 1, and the edge shapes of a graph.
func shapeGraphs() map[string]*rdf.Graph {
	shape := func(n int, edges, docs, places bool) *rdf.Graph {
		b := rdf.NewBuilder()
		for i := 0; i < n; i++ {
			v := b.AddBareVertex(fmt.Sprintf("ex:v%d", (i*7)%n))
			if docs {
				b.AddTermID(v, b.Vocab.ID(fmt.Sprintf("w%d", i%5)))
				b.AddTermID(v, b.Vocab.ID(fmt.Sprintf("w%d", i%3)))
			}
			if places && i%2 == 0 {
				b.SetLocation(v, geo.Point{X: float64(i), Y: -float64(i) / 3})
			}
		}
		for i := 0; edges && i < 3*n; i++ {
			b.AddEdge(uint32(i%n), uint32((i*5+1)%n), fmt.Sprintf("ex:p%d", i%4))
		}
		return b.Build()
	}
	return map[string]*rdf.Graph{
		"Yago-like":           gen.Generate(gen.YagoConfig(400, 3)),
		"DBpedia-like":        gen.Generate(gen.DBpediaConfig(300, 4)),
		"Figure 1":            paperdata.Figure1().G,
		"no edges":            shape(20, false, true, true),
		"all documents empty": shape(20, true, false, true),
		"no places":           shape(20, true, true, false),
		"one vertex":          shape(1, false, true, true),
		"no vertices":         shape(0, false, false, false),
	}
}

// Every accessor of a Graph, of its R-tree and of its reachability index
// answers alike whether they were built, read back from a snapshot onto
// the heap, or mapped from one.
func TestAccessorsIdenticalAcrossSources(t *testing.T) {
	for name, g := range shapeGraphs() {
		s := &Snapshot{Graph: g, Tree: rtree.OfPlaces(g.Places(), g.Loc), Reach: reach.NewKeywordIndex(g, rdf.Outgoing), Dir: rdf.Outgoing}
		raw := encode(t, s)
		read, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: Read: %v", name, err)
		}
		sameGraph(t, name+", Read", read.Graph, g)
		sameIndexes(t, name+", Read", read, s)
		path := filepath.Join(t.TempDir(), "snap.bin")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, err := OpenDisk(path, true)
		if err != nil {
			t.Fatalf("%s: OpenDisk: %v", name, err)
		}
		sameGraph(t, name+", mapped", mapped.Graph, g)
		sameIndexes(t, name+", mapped", mapped, s)
		if err := mapped.Close(); err != nil {
			t.Fatal(err)
		}
		var again bytes.Buffer
		if err := Write(&again, read); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), raw) {
			t.Fatalf("%s: a snapshot read and written again changed", name)
		}
	}
}

// sameIndexes demands that got's R-tree and reachability index answer as
// want's do: the same node arrays, the same browsing order and node
// accesses from every corner and the centre of the tree's bounds, the
// same window searches, and, when want has labels, the same CanReach for
// every vertex and every term (and one term beyond the vocabulary).
func sameIndexes(t testing.TB, label string, got, want *Snapshot) {
	t.Helper()
	a, b := got.Tree.Arrays(), want.Tree.Arrays()
	if !slices.Equal(a.Rects, b.Rects) || !slices.Equal(a.Off, b.Off) || !slices.Equal(a.Children, b.Children) ||
		!slices.Equal(a.IDs, b.IDs) || !slices.Equal(a.Locs, b.Locs) || a.Leaves != b.Leaves || got.Tree.Height() != want.Tree.Height() {
		t.Fatalf("%s: the R-tree's arrays differ", label)
	}
	r := want.Tree.Bounds()
	if want.Tree.Len() == 0 {
		r = geo.Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}
	}
	for _, q := range []geo.Point{{X: r.MinX, Y: r.MinY}, {X: r.MaxX, Y: r.MinY}, {X: r.MinX, Y: r.MaxY}, {X: r.MaxX, Y: r.MaxY}, r.Center()} {
		gb, wb := got.Tree.NewBrowser(q), want.Tree.NewBrowser(q)
		for {
			gi, gd, gok := gb.Next()
			wi, wd, wok := wb.Next()
			if gi != wi || gd != wd || gok != wok {
				t.Fatalf("%s: browsing from %v: %v at %v, want %v at %v", label, q, gi, gd, wi, wd)
			}
			if !wok {
				break
			}
		}
		if gb.NodeAccesses != wb.NodeAccesses {
			t.Fatalf("%s: browsing from %v: %d node accesses, want %d", label, q, gb.NodeAccesses, wb.NodeAccesses)
		}
		window := geo.RectFromPoint(q).ExpandPoint(r.Center())
		if g, w := got.Tree.Search(window, nil), want.Tree.Search(window, nil); !slices.Equal(g, w) {
			t.Fatalf("%s: Search(%v) = %v, want %v", label, window, g, w)
		}
	}
	if want.Reach == nil {
		return
	}
	if got.Reach == nil {
		t.Fatalf("%s: no reachability labels", label)
	}
	g := want.Graph
	for v := uint32(0); int(v) < g.NumVertices(); v++ {
		for term := uint32(0); int(term) <= g.Vocab.Len(); term++ {
			if a, b := got.Reach.CanReach(v, term), want.Reach.CanReach(v, term); a != b {
				t.Fatalf("%s: CanReach(%d, %d) = %v, want %v", label, v, term, a, b)
			}
		}
	}
}

// graphDamage returns snapshots, by the rule each
// breaks, whose graph arrays were damaged after they were written and
// whose trailers were then recomputed, so that nothing but the checks at
// open can see the damage.
func graphDamage(t testing.TB) map[string][]byte {
	t.Helper()
	g := gen.Generate(gen.YagoConfig(300, 5))
	e := core.NewEngine(g, rdf.Outgoing)
	e.EnableAlpha(2)
	raw := encode(t, &Snapshot{Graph: g, AlphaRadius: 2, Dir: rdf.Outgoing, AlphaPlace: e.Alpha.PlaceIdx, AlphaNode: e.Alpha.NodeIdx})
	base := layoutOf(t, raw)
	n, terms, preds := uint32(g.NumVertices()), uint32(g.Vocab.Len()), uint32(g.NumPredNames())
	// Fixture positions: the first vertex with two distinct successors,
	// the first document of two terms, the first in-list, a vertex that
	// is not a place.
	var twoOut, twoDoc, firstIn, notPlace uint32
	for v := n - 1; v > 0; v-- {
		if out := g.Out(v); len(out) >= 2 && out[0] != out[len(out)-1] {
			twoOut = v
		}
		if len(g.Doc(v)) >= 2 {
			twoDoc = v
		}
		if len(g.In(v)) > 0 {
			firstIn = v
		}
		if !g.IsPlace(v) {
			notPlace = v
		}
	}
	if twoOut == 0 || twoDoc == 0 || firstIn == 0 || notPlace == 0 || len(g.Places()) < 2 {
		t.Fatal("the fixture lacks a shape the damage needs")
	}
	outAt := base.u32s("outOff")[twoOut]
	docAt := base.u32s("docOff")[twoDoc]
	inAt := base.u32s("inOff")[firstIn]
	swap := func(l *imageLayout, name string, i, j int) {
		a := l.u32s(name)
		l.put(name, i, a[j])
		l.put(name, j, a[i])
	}
	damage := map[string]func(l *imageLayout){
		"a header count beyond the arrays":   func(l *imageLayout) { l.put("header", hDocTerms, l.u32s("header")[hDocTerms]+1) },
		"a header count short of the arrays": func(l *imageLayout) { l.put("header", hEdges, l.u32s("header")[hEdges]-1) },
		"bytes after the last section":       func(l *imageLayout) { l.raw = append(l.raw, make([]byte, 8)...) },
		"nonzero padding before a trailer":   func(l *imageLayout) { l.raw[4*headerWords] = 1 },
		"nonzero padding between arrays": func(l *imageLayout) {
			end := l.arrays["uriBlob"][1]
			if end%8 == 0 {
				t.Fatal("the URI blob needs no padding")
			}
			l.raw[end] = 1
		},
		"vocabulary offsets that descend":   func(l *imageLayout) { swap(l, "termOff", 1, 2) },
		"URI offsets past their blob":       func(l *imageLayout) { l.put("uriOff", int(n), l.u32s("uriOff")[n]+1) },
		"a vocabulary order that descends":  func(l *imageLayout) { swap(l, "termSort", 0, 1) },
		"a URI order that repeats a vertex": func(l *imageLayout) { l.put("uriSort", 1, l.u32s("uriSort")[0]) },
		"a URI order past the vertices":     func(l *imageLayout) { l.put("uriSort", int(n)-1, n) },
		"predicate offsets past their blob": func(l *imageLayout) { l.put("predOff", int(preds), l.u32s("predOff")[preds]+1) },
		"out offsets that descend":          func(l *imageLayout) { swap(l, "outOff", int(twoOut), int(twoOut)+1) },
		"an out-list out of order":          func(l *imageLayout) { swap(l, "outEdges", int(outAt), int(outAt)+1) },
		"an edge listed twice": func(l *imageLayout) {
			l.put("outEdges", int(outAt)+1, l.u32s("outEdges")[outAt])
			l.put("outPreds", int(outAt)+1, l.u32s("outPreds")[outAt])
		},
		"an edge to a vertex beyond the graph": func(l *imageLayout) { l.put("outEdges", int(g.NumEdges())-1, n) },
		"an edge with an unknown predicate":    func(l *imageLayout) { l.put("outPreds", int(outAt), preds) },
		"an in-list that is not the transpose": func(l *imageLayout) { l.put("inEdges", int(inAt), (l.u32s("inEdges")[inAt]+1)%n) },
		"in offsets that move an edge":         func(l *imageLayout) { l.put("inOff", int(firstIn)+1, inAt) },
		"document offsets that descend":        func(l *imageLayout) { swap(l, "docOff", int(twoDoc), int(twoDoc)+1) },
		"a document out of order":              func(l *imageLayout) { swap(l, "docTerms", int(docAt), int(docAt)+1) },
		"a document term listed twice":         func(l *imageLayout) { l.put("docTerms", int(docAt)+1, l.u32s("docTerms")[docAt]) },
		"a document term beyond the vocabulary": func(l *imageLayout) {
			l.put("docTerms", len(l.u32s("docTerms"))-1, terms)
		},
		"places out of order":                      func(l *imageLayout) { swap(l, "places", 0, 1) },
		"a place beyond the vertices":              func(l *imageLayout) { l.put("places", len(g.Places())-1, n) },
		"a place with the wrong ordinal":           func(l *imageLayout) { l.put("placeOrd", int(g.Places()[0]), 1) },
		"an ordinal for a vertex that is no place": func(l *imageLayout) { l.put("placeOrd", int(notPlace), 0) },
		"a NaN coordinate":                         func(l *imageLayout) { putF64(l, "coords", 0, math.NaN()) },
		"an infinite coordinate":                   func(l *imageLayout) { putF64(l, "coords", 3, math.Inf(1)) },
		"an α radius beyond a byte":                func(l *imageLayout) { l.put("header", hAlphaRadius, 300) },
		// The α images are checked by alpha.Open* (alphaDamage has a case
		// per rule); one case shows they are among the graph's checks.
		"an α place nibble beyond α+1": func(l *imageLayout) {
			img := l.bytes("alphaPlace")
			if at := partsOf(img, true).cols; at < len(img) {
				img[at] = img[at]&0xF0 | 4
			}
		},
	}
	out := make(map[string][]byte, len(damage))
	for name, hurt := range damage {
		l := &imageLayout{raw: slices.Clone(raw), arrays: base.arrays, sections: base.sections}
		hurt(l)
		if bytes.Equal(l.raw, raw) {
			t.Fatalf("%s: the damage changed nothing", name)
		}
		out[name] = l.resummed()
	}
	return out
}

// Every open-time rule of the graph image holds in every mode: each
// damaged image is refused with ErrCorrupt by Read, LoadFile and the
// mapped open, though every trailer matches.
func TestReadRejectsDamagedGraphImage(t *testing.T) {
	for name, raw := range graphDamage(t) {
		for mode, open := range openAll(t, raw) {
			if _, err := open(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt", name, mode, err)
			}
		}
	}
}

// A place at a NaN or infinite location is refused as corrupt in every
// mode: no distance to it orders. No builder makes such a graph, so each
// file is written with a finite location that is then replaced in the
// coordinates of the image, whose trailers are recomputed.
func TestReadRejectsNonFiniteCoordinates(t *testing.T) {
	b := rdf.NewBuilder()
	b.SetLocation(b.AddBareVertex("ex:a"), geo.Point{X: 1, Y: 2})
	bad := b.AddBareVertex("ex:b")
	b.SetLocation(bad, geo.Point{X: 3, Y: 4})
	s := &Snapshot{Graph: b.Build()}
	for _, loc := range []geo.Point{{X: math.NaN(), Y: 1}, {X: 1, Y: math.Inf(1)}, {X: math.Inf(-1), Y: math.NaN()}} {
		l := layoutOf(t, encode(t, s))
		putF64(l, "coords", 2, loc.X)
		putF64(l, "coords", 3, loc.Y)
		for mode, open := range openAll(t, l.resummed()) {
			if _, err := open(); !errors.Is(err, ErrCorrupt) {
				t.Errorf("%v, %s: got %v, want ErrCorrupt", loc, mode, err)
			}
		}
	}
}

// indexDamage returns snapshots, by the open-time rule
// of the R-tree or reachability image each breaks, with the text the
// refusal must carry (empty when any refusal will do). The arrays were
// damaged after they were written and the trailers recomputed, so that
// nothing but the checks at open can see the damage; where a rule is
// broken alone only if the rectangles follow, they are recomputed too.
// The fixture's tree has fanout 4 over some hundred places, so it is four
// levels deep.
func indexDamage(t testing.TB) map[string]indexCase {
	t.Helper()
	g := gen.Generate(gen.YagoConfig(300, 5))
	items := make([]rtree.Item, len(g.Places()))
	for i, p := range g.Places() {
		items[i] = rtree.Item{ID: p, Loc: g.Loc(p)}
	}
	tree := rtree.Bulk(items, 4)
	ix := alpha.Build(g, tree, 2, rdf.Outgoing)
	s := &Snapshot{Graph: g, Tree: tree, Reach: reach.NewKeywordIndex(g, rdf.Outgoing), AlphaRadius: 2, Dir: rdf.Outgoing,
		AlphaPlace: ix.PlaceIdx, AlphaNode: ix.NodeIdx}
	raw := encode(t, s)
	base := layoutOf(t, raw)
	ta, ra := tree.Arrays(), s.Reach.Arrays()
	nodes, leaves, comps := len(ta.Rects), ta.Leaves, uint32(len(ra.LinOff)-1)
	if tree.Height() < 4 {
		t.Fatalf("the fixture's tree is %d levels deep", tree.Height())
	}
	// Fixture positions: the first and the last parent of leaves, the
	// entry of the first in the children, an item strictly inside its
	// leaf's rectangle, a vertex that is no place, a component with two
	// in-label ranks after the first ranks, and two used terms.
	kids := func(n int) int { return int(ta.Off[n] - ta.Off[leaves]) }
	firstParent, lastParent := leaves, leaves
	for int(ta.Children[kids(lastParent+1)]) < leaves {
		lastParent++
	}
	inner := -1
	for i, p := range ta.Locs {
		r := ta.Rects[sort.Search(leaves, func(n int) bool { return int(ta.Off[n+1]) > i })]
		if p.X > r.MinX && p.X < r.MaxX {
			inner = i
			break
		}
	}
	var notPlace uint32
	for !g.IsPlace(notPlace) {
		notPlace++
	}
	for g.IsPlace(notPlace) {
		notPlace++
	}
	twoIn := 0
	for twoIn < int(comps) && (ra.LinOff[twoIn] == 0 || ra.LinOff[twoIn+1]-ra.LinOff[twoIn] < 2) {
		twoIn++
	}
	usedTerm := slices.IndexFunc(ra.TermVert, func(v uint32) bool { return v != rdf.NoVertex })
	if lastParent == firstParent || inner < 0 || twoIn == int(comps) || usedTerm < 0 {
		t.Fatal("the fixture lacks a shape the damage needs")
	}
	otherTerm := usedTerm + 1 + slices.IndexFunc(ra.TermVert[usedTerm+1:], func(v uint32) bool { return v != rdf.NoVertex })

	// fixRects makes every rectangle the MBR of its node's entries again,
	// children first, as their IDs are.
	fixRects := func(l *imageLayout) {
		off, children := l.u32s("treeOff"), l.u32s("children")
		for n := 0; n < nodes; n++ {
			r := geo.EmptyRect()
			for i := off[n]; i < off[n+1]; i++ {
				if n < leaves {
					r = r.ExpandPoint(geo.Point{X: l.f64("itemLocs", 2*int(i)), Y: l.f64("itemLocs", 2*int(i)+1)})
				} else {
					c := int(children[int(i)-len(ta.IDs)])
					r = r.Union(geo.Rect{MinX: l.f64("rects", 4*c), MinY: l.f64("rects", 4*c+1), MaxX: l.f64("rects", 4*c+2), MaxY: l.f64("rects", 4*c+3)})
				}
			}
			for k, f := range []float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
				putF64(l, "rects", 4*n+k, f)
			}
		}
	}
	damage := map[string]struct {
		hurt func(l *imageLayout)
		want string
	}{
		"a node count beyond the arrays": {func(l *imageLayout) { l.put("header", hNodes, uint32(nodes+1)) }, ""},
		"a leaf count beyond the leaves": {func(l *imageLayout) { l.put("header", hLeaves, uint32(leaves+1)) }, "offsets end"},
		"a root that is not the last node": {func(l *imageLayout) {
			l.put("children", kids(firstParent), uint32(nodes-1))
		}, "does not precede it"},
		"a node that is the child of two nodes": {func(l *imageLayout) {
			l.put("children", kids(firstParent), ta.Children[kids(lastParent)])
		}, "has another parent"},
		"leaves at two depths": {func(l *imageLayout) {
			// The last parent of leaves trades its first leaf for the first
			// parent of leaves, so that leaf hangs a level too high.
			at := slices.Index(ta.Children, uint32(firstParent))
			l.put("children", at, ta.Children[kids(lastParent)])
			l.put("children", kids(lastParent), uint32(firstParent))
			fixRects(l)
		}, "leaves at depths"},
		"a node with no entries": {func(l *imageLayout) {
			l.put("treeOff", firstParent+1, ta.Off[firstParent])
			fixRects(l)
		}, "has 0 entries"},
		"a node beyond the capacity": {func(l *imageLayout) {
			for n := 1; n <= rtree.DefaultMaxEntries/4+1; n++ {
				l.put("treeOff", n, 0)
			}
			fixRects(l)
		}, "entries, the capacity"},
		"a rectangle that is not its entries' MBR": {func(l *imageLayout) {
			putF64(l, "rects", 2, math.Nextafter(l.f64("rects", 2), math.Inf(1)))
		}, "has rectangle"},
		"an item that is no place": {func(l *imageLayout) { l.put("itemIDs", 0, notPlace) }, "not a place it holds once"},
		"a place listed twice": {func(l *imageLayout) {
			l.put("itemIDs", 1, ta.IDs[0])
			putF64(l, "itemLocs", 2, ta.Locs[0].X)
			putF64(l, "itemLocs", 3, ta.Locs[0].Y)
			fixRects(l)
		}, "not a place it holds once"},
		"an item an ulp off its place": {func(l *imageLayout) {
			putF64(l, "itemLocs", 2*inner, math.Nextafter(ta.Locs[inner].X, math.Inf(1)))
		}, "the graph at"},
		"a reachability count beyond the arrays": {func(l *imageLayout) {
			l.put("header", hReachIn, l.u32s("header")[hReachIn]+1)
		}, ""},
		"reachability counts without the labels": {func(l *imageLayout) {
			l.put("header", hFlags, l.u32s("header")[hFlags]&^flagReach)
		}, ""},
		"a component beyond the count": {func(l *imageLayout) { l.put("comp", 0, comps) }, "in component"},
		"label offsets that descend": {func(l *imageLayout) {
			l.put("linOff", twoIn+1, ra.LinOff[twoIn]-1)
		}, "descend"},
		"label offsets past their ranks": {func(l *imageLayout) {
			l.put("loutOff", int(comps), ra.LoutOff[comps]-1)
		}, "label offsets run"},
		"a label out of order": {func(l *imageLayout) {
			at := int(ra.LinOff[twoIn])
			l.put("lin", at, ra.Lin[at+1])
			l.put("lin", at+1, ra.Lin[at])
		}, "strictly ascending"},
		"a label rank beyond the components": {func(l *imageLayout) {
			l.put("lin", int(ra.LinOff[twoIn+1])-1, comps)
		}, "strictly ascending"},
		"a term at a vertex of the graph": {func(l *imageLayout) { l.put("termVert", usedTerm, 0) }, "not an unused augmented vertex"},
		"two terms at one vertex": {func(l *imageLayout) {
			l.put("termVert", otherTerm, ra.TermVert[usedTerm])
		}, "not an unused augmented vertex"},
		"a term beyond the augmented vertices": {func(l *imageLayout) {
			l.put("termVert", usedTerm, uint32(len(ra.Comp)))
		}, "not an unused augmented vertex"},
		"an augmented vertex no term has": {func(l *imageLayout) { l.put("termVert", usedTerm, rdf.NoVertex) }, "terms use one"},
	}
	out := make(map[string]indexCase, len(damage)+1)
	for name, d := range damage {
		l := &imageLayout{raw: slices.Clone(raw), arrays: base.arrays, sections: base.sections}
		d.hurt(l)
		if bytes.Equal(l.raw, raw) {
			t.Fatalf("%s: the damage changed nothing", name)
		}
		out[name] = indexCase{l.resummed(), d.want}
	}
	// A node file built over another tree of the same places: written
	// whole, so every trailer matches without a recompute.
	other := alpha.Build(g, rtree.Bulk(slices.Clone(items), 8), 2, rdf.Outgoing)
	mixed := *s
	mixed.AlphaNode = other.NodeIdx
	out["an α node file over another tree"] = indexCase{encode(t, &mixed), "α node index ranges over"}
	return out
}

type indexCase struct {
	raw  []byte
	want string
}

// Every open-time rule of the R-tree and reachability images holds in
// every mode: each damaged image is refused with ErrCorrupt, for the
// rule it breaks, by Read, LoadFile and the mapped open, though every
// trailer matches.
func TestReadRejectsDamagedIndexImage(t *testing.T) {
	for name, c := range indexDamage(t) {
		for mode, open := range openAll(t, c.raw) {
			_, err := open()
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s, %s: got %v, want ErrCorrupt naming %q", name, mode, err, c.want)
			}
		}
	}
}
