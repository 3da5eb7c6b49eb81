package rtree

import (
	"math/rand"
	"testing"

	"ksp/internal/geo"
)

func TestNextKEmptyTree(t *testing.T) {
	b := NewInserter(8).Tree().NewBrowser(geo.Point{})
	if got := b.NextK(5, nil); got != nil {
		t.Fatalf("NextK on empty tree = %v, want nil", got)
	}
	buf := make([]ItemDist, 0, 4)
	if got := b.NextK(3, buf); len(got) != 0 {
		t.Fatalf("NextK on empty tree appended %d items", len(got))
	}
	if d, ok := b.PeekDist(); ok || d != 0 {
		t.Fatalf("PeekDist on empty tree = %v,%v; want 0,false", d, ok)
	}
}

func TestPeekDistAfterExhaustion(t *testing.T) {
	ins := NewInserter(4)
	ins.Insert(Item{ID: 1, Loc: geo.Point{X: 3, Y: 4}})
	b := ins.Tree().NewBrowser(geo.Point{})
	if _, _, ok := b.Next(); !ok {
		t.Fatal("expected one item")
	}
	for i := 0; i < 3; i++ { // repeated calls after exhaustion stay consistent
		if it, d, ok := b.Next(); ok || it.ID != 0 || d != 0 {
			t.Fatalf("Next after exhaustion = %v,%v,%v; want zero values", it, d, ok)
		}
		if d, ok := b.PeekDist(); ok || d != 0 {
			t.Fatalf("PeekDist after exhaustion = %v,%v; want 0,false", d, ok)
		}
		if got := b.NextK(4, nil); got != nil {
			t.Fatalf("NextK after exhaustion = %v, want nil", got)
		}
	}
}

func TestNextKZeroAndNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr := Bulk(randomItems(rng, 20), 4)
	b := tr.NewBrowser(geo.Point{X: 50, Y: 50})
	if got := b.NextK(0, nil); got != nil {
		t.Fatalf("NextK(0) = %v, want nil", got)
	}
	if got := b.NextK(-3, nil); got != nil {
		t.Fatalf("NextK(-3) = %v, want nil", got)
	}
	// The browser must be untouched: a full drain still yields everything.
	if got := b.NextK(100, nil); len(got) != 20 {
		t.Fatalf("drain after NextK(0) yielded %d items, want 20", len(got))
	}
}

// TestNextKMatchesNext verifies that any interleaving of NextK batches and
// single Next calls yields exactly the sequence a Next-only browser
// produces — same IDs, bit-identical distances — so windowed and serial
// candidate streams see the same pop order.
func TestNextKMatchesNext(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(400)
		items := randomItems(rng, n)
		tr := Bulk(append([]Item(nil), items...), 4+rng.Intn(12))
		q := geo.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100}

		ref := tr.NewBrowser(q)
		var want []ItemDist
		for {
			it, d, ok := ref.Next()
			if !ok {
				break
			}
			want = append(want, ItemDist{Item: it, Dist: d})
		}

		mixed := tr.NewBrowser(q)
		var got []ItemDist
		for {
			before := len(got)
			if rng.Intn(2) == 0 {
				it, d, ok := mixed.Next()
				if ok {
					got = append(got, ItemDist{Item: it, Dist: d})
				}
			} else {
				got = mixed.NextK(1+rng.Intn(7), got)
			}
			if len(got) == before {
				if _, ok := mixed.PeekDist(); ok {
					t.Fatal("no progress but PeekDist says items remain")
				}
				break
			}
			// PeekDist must lower-bound the next emitted distance.
			if d, ok := mixed.PeekDist(); ok && len(got) < len(want) && d > want[len(got)].Dist+1e-12 {
				t.Fatalf("trial %d: PeekDist %v exceeds next distance %v", trial, d, want[len(got)].Dist)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: mixed browser yielded %d items, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].Item.ID != want[i].Item.ID || got[i].Dist != want[i].Dist {
				t.Fatalf("trial %d: divergence at %d: got %v want %v", trial, i, got[i], want[i])
			}
		}
		if mixed.NodeAccesses != ref.NodeAccesses {
			t.Fatalf("trial %d: node accesses diverge: %d vs %d", trial, mixed.NodeAccesses, ref.NodeAccesses)
		}
	}
}
