package rtree

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ksp/internal/geo"
)

func randomItems(rng *rand.Rand, n int) []Item {
	items := make([]Item, n)
	for i := range items {
		items[i] = Item{ID: uint32(i), Loc: geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}}
	}
	return items
}

func TestInsertValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ins := NewInserter(8)
	items := randomItems(rng, 500)
	for _, it := range items {
		ins.Insert(it)
	}
	tr := ins.Tree()
	if tr.Len() != len(items) {
		t.Fatalf("Len = %d after %d inserts", tr.Len(), len(items))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Height() < 2 {
		t.Errorf("height %d too small for 500 items at M=8", tr.Height())
	}
}

func TestBulkValidate(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 1, 7, 8, 9, 100, 1000} {
		items := randomItems(rng, n)
		tr := Bulk(items, 8)
		if tr.Len() != n {
			t.Fatalf("Bulk(%d).Len = %d", n, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("Bulk(%d): %v", n, err)
		}
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	items := randomItems(rng, 400)
	for _, build := range []func() *RTree{
		func() *RTree {
			ins := NewInserter(6)
			for _, it := range items {
				ins.Insert(it)
			}
			return ins.Tree()
		},
		func() *RTree {
			cp := append([]Item(nil), items...)
			return Bulk(cp, 6)
		},
	} {
		tr := build()
		for trial := 0; trial < 20; trial++ {
			r := geo.Rect{
				MinX: rng.Float64() * 80, MinY: rng.Float64() * 80,
			}
			r.MaxX = r.MinX + rng.Float64()*30
			r.MaxY = r.MinY + rng.Float64()*30
			gotIDs := tr.Search(r, nil)
			var want []uint32
			for _, it := range items {
				if r.ContainsPoint(it.Loc) {
					want = append(want, it.ID)
				}
			}
			sort.Slice(gotIDs, func(i, j int) bool { return gotIDs[i] < gotIDs[j] })
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if len(gotIDs) != len(want) {
				t.Fatalf("search %v: got %d items, want %d", r, len(gotIDs), len(want))
			}
			for i := range want {
				if gotIDs[i] != want[i] {
					t.Fatalf("search %v: id mismatch at %d", r, i)
				}
			}
		}
	}
}

func TestBrowserOrderAndCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	items := randomItems(rng, 300)
	tr := Bulk(append([]Item(nil), items...), 8)
	q := geo.Point{X: 50, Y: 50}

	b := tr.NewBrowser(q)
	var dists []float64
	seen := make(map[uint32]bool)
	prev := -1.0
	for {
		it, d, ok := b.Next()
		if !ok {
			break
		}
		if d < prev-1e-12 {
			t.Fatalf("browser out of order: %v after %v", d, prev)
		}
		if math.Abs(d-q.Dist(it.Loc)) > 1e-12 {
			t.Fatalf("reported distance %v != actual %v", d, q.Dist(it.Loc))
		}
		prev = d
		if seen[it.ID] {
			t.Fatalf("item %d reported twice", it.ID)
		}
		seen[it.ID] = true
		dists = append(dists, d)
	}
	if len(seen) != len(items) {
		t.Fatalf("browser reported %d items, want %d", len(seen), len(items))
	}
	if b.NodeAccesses == 0 {
		t.Error("expected some node accesses")
	}
	// Compare against brute-force sorted distances.
	want := make([]float64, len(items))
	for i, it := range items {
		want[i] = q.Dist(it.Loc)
	}
	sort.Float64s(want)
	for i := range want {
		if math.Abs(want[i]-dists[i]) > 1e-9 {
			t.Fatalf("distance sequence diverges at %d: got %v want %v", i, dists[i], want[i])
		}
	}
}

func TestEmptyTree(t *testing.T) {
	tr := NewInserter(8).Tree()
	if got := tr.Search(geo.Rect{MinX: -1, MinY: -1, MaxX: 1, MaxY: 1}, nil); len(got) != 0 {
		t.Errorf("search on empty tree returned %d items", len(got))
	}
	b := tr.NewBrowser(geo.Point{})
	if _, _, ok := b.Next(); ok {
		t.Error("Next on empty tree should report exhaustion")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
	if b := Bulk(nil, 8); b.Len() != 0 || b.NumNodes() != 1 || b.Validate() != nil {
		t.Error("Bulk(nil) should be one empty leaf")
	}
}

func TestDuplicateLocations(t *testing.T) {
	ins := NewInserter(4)
	for i := 0; i < 50; i++ {
		ins.Insert(Item{ID: uint32(i), Loc: geo.Point{X: 1, Y: 1}})
	}
	tr := ins.Tree()
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	b := tr.NewBrowser(geo.Point{X: 1, Y: 1})
	count := 0
	for {
		_, d, ok := b.Next()
		if !ok {
			break
		}
		if d != 0 {
			t.Fatalf("distance %v, want 0", d)
		}
		count++
	}
	if count != 50 {
		t.Fatalf("got %d items, want 50", count)
	}
}

// Property: for random point sets and random query points, the first item
// from the browser is a true nearest neighbour.
func TestNearestNeighbourProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed))
		n := 1 + local.Intn(200)
		items := randomItems(local, n)
		tr := Bulk(append([]Item(nil), items...), 4+local.Intn(12))
		q := geo.Point{X: local.Float64() * 120, Y: local.Float64() * 120}
		_, d, ok := tr.NewBrowser(q).Next()
		if !ok {
			return false
		}
		best := math.Inf(1)
		for _, it := range items {
			if dd := q.Dist(it.Loc); dd < best {
				best = dd
			}
		}
		return math.Abs(d-best) < 1e-9
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestNumNodesAndMemSize(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	tr := Bulk(randomItems(rng, 1000), 16)
	if tr.NumNodes() < 1000/16 {
		t.Errorf("NumNodes = %d, suspiciously small", tr.NumNodes())
	}
	if tr.MemSize() <= 0 {
		t.Error("MemSize must be positive")
	}
}

func BenchmarkInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	items := randomItems(rng, b.N)
	ins := NewInserter(DefaultMaxEntries)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ins.Insert(items[i])
	}
}

func BenchmarkBulk(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	items := randomItems(rng, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := append([]Item(nil), items...)
		Bulk(cp, DefaultMaxEntries)
	}
}

func BenchmarkBrowserNext(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	tr := Bulk(randomItems(rng, 100000), DefaultMaxEntries)
	b.ResetTimer()
	br := tr.NewBrowser(geo.Point{X: 50, Y: 50})
	for i := 0; i < b.N; i++ {
		if _, _, ok := br.Next(); !ok {
			br = tr.NewBrowser(geo.Point{X: 50, Y: 50})
		}
	}
}
