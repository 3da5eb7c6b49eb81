package rdf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ksp/internal/text"
)

func randomURIGraph(t testing.TB, seed int64, n int) (*Graph, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder()
	b.Analyzer = text.Analyzer{}
	uris := make([]string, n)
	for i := range uris {
		// Mix shared prefixes, varying lengths, and an empty-ish tail so
		// the byte-wise comparisons see every shape.
		uris[i] = fmt.Sprintf("ex:%s/%d", string(rune('a'+rng.Intn(4))), i)
	}
	for i, u := range uris {
		v := b.AddBareVertex(u)
		if i%3 == 0 {
			b.AddTermID(v, b.Vocab.ID(fmt.Sprintf("t%d", i%7)))
		}
	}
	for i := 0; i < n; i++ {
		b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)), "p")
	}
	return b.Build(), uris
}

// Every interned URI must round-trip through the flat table, and lookup
// of absent URIs (including ones adjacent in sort order) must miss.
func TestFlatURITableRoundTrip(t *testing.T) {
	g, uris := randomURIGraph(t, 5, 500)
	if g.NumVertices() != len(uris) {
		t.Fatalf("NumVertices = %d, want %d", g.NumVertices(), len(uris))
	}
	for v, u := range uris {
		if got := g.URI(uint32(v)); got != u {
			t.Fatalf("URI(%d) = %q, want %q", v, got, u)
		}
		id, ok := g.VertexByURI(u)
		if !ok || id != uint32(v) {
			t.Fatalf("VertexByURI(%q) = %d,%v, want %d,true", u, id, ok, v)
		}
	}
	for _, probe := range []string{"", "ex:", "ex:a/", "zz", uris[0] + "x", uris[0][:len(uris[0])-1] + "~"} {
		if id, ok := g.VertexByURI(probe); ok {
			t.Fatalf("VertexByURI(%q) = %d, want miss", probe, id)
		}
	}
}

func TestEmptyGraphURIs(t *testing.T) {
	b := NewBuilder()
	b.Analyzer = text.Analyzer{}
	g := b.Build()
	if g.NumVertices() != 0 {
		t.Fatalf("NumVertices = %d, want 0", g.NumVertices())
	}
	if _, ok := g.VertexByURI("anything"); ok {
		t.Fatal("lookup in empty graph succeeded")
	}
	if g.AvgOutDegree() != 0 {
		t.Fatal("AvgOutDegree of empty graph non-zero")
	}
}

// MemSize must account for the flat URI and predicate tables, the
// places with their ordinals and coordinates, and every CSR array, and a
// Graph viewing the same arrays (FromArrays, as a snapshot opens one)
// must report the same footprint.
func TestMemSizeAccounting(t *testing.T) {
	g, _ := randomURIGraph(t, 6, 200)
	sz := g.MemSize()
	var want int64
	want += int64(len(g.outOff)+len(g.outEdges)+len(g.outPreds)+len(g.inOff)+len(g.inEdges)) * 4
	want += int64(len(g.docOff)+len(g.docTerms)) * 4
	want += int64(len(g.coords)) * 16
	want += int64(len(g.places)+len(g.placeOrd)) * 4
	want += int64(len(g.uris.Blob))
	want += int64(len(g.uris.Off)+len(g.uris.Sorted)) * 4
	want += int64(len(g.preds.Blob)) + int64(len(g.preds.Off))*4
	if sz != want {
		t.Fatalf("MemSize = %d, want %d", sz, want)
	}
	if len(g.uris.Blob) == 0 || len(g.docTerms) == 0 {
		t.Fatal("test graph has an empty URI blob or no document terms")
	}
	view, err := FromArrays(g.Arrays(), g.Analyzer())
	if err != nil {
		t.Fatal(err)
	}
	if got := view.MemSize(); got != sz {
		t.Fatalf("MemSize of the view = %d, want %d", got, sz)
	}
}

// The slice-based WCC counter must agree with a map-based reference.
func TestWCCSizesMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder()
		b.Analyzer = text.Analyzer{}
		n := 50 + rng.Intn(200)
		for i := 0; i < n; i++ {
			b.AddBareVertex(fmt.Sprintf("v%d", i))
		}
		for i := 0; i < n/2; i++ {
			b.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)), "p")
		}
		g := b.Build()
		got := g.WCCSizes()

		// Reference: BFS labelling over the undirected graph.
		comp := make([]int, g.NumVertices())
		for i := range comp {
			comp[i] = -1
		}
		var sizes []int
		bfs := NewBFSState(g)
		for v := 0; v < g.NumVertices(); v++ {
			if comp[v] >= 0 {
				continue
			}
			c := len(sizes)
			count := 0
			bfs.Run(uint32(v), Undirected, -1, func(w uint32, _ int) bool {
				comp[w] = c
				count++
				return true
			})
			sizes = append(sizes, count)
		}
		for i := 1; i < len(sizes); i++ { // sort descending
			for j := i; j > 0 && sizes[j-1] < sizes[j]; j-- {
				sizes[j-1], sizes[j] = sizes[j], sizes[j-1]
			}
		}
		if !reflect.DeepEqual(got, sizes) {
			t.Fatalf("seed %d: WCCSizes = %v, reference %v", seed, got, sizes)
		}
	}
}
