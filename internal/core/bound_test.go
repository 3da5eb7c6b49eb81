package core

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ksp/internal/gen"
	"ksp/internal/rdf"
)

func established(b *Bound) bool {
	select {
	case <-b.Established():
		return true
	default:
		return false
	}
}

// θ is the kth-best score over distinct places: +Inf and unestablished
// below k offers, de-duplicated by place, and never increasing.
func TestBoundKthBest(t *testing.T) {
	b := NewBound(3)
	b.Offer(1, 5)
	b.Offer(2, 7)
	b.Offer(1, 5) // a retry re-offering place 1 must not count as a third place
	b.Offer(2, 7)
	if established(b) || !math.IsInf(b.Theta(), 1) {
		t.Fatalf("two distinct places established a top-3 bound: θ = %v", b.Theta())
	}
	b.Offer(3, 9)
	if !established(b) || b.Theta() != 9 {
		t.Fatalf("after three places θ = %v (established %v), want 9", b.Theta(), established(b))
	}
	b.Offer(4, 20) // worse than the kth: no effect
	b.Offer(3, 9)  // duplicate of the kth itself
	if b.Theta() != 9 {
		t.Fatalf("θ moved to %v on a worse offer / a duplicate", b.Theta())
	}
	b.Offer(5, 6) // evicts 9: the three best are now 5, 6, 7
	if b.Theta() != 7 {
		t.Fatalf("θ = %v, want 7", b.Theta())
	}
	b.Offer(6, 7) // ties the kth: a fourth place at θ does not lower it
	if b.Theta() != 7 {
		t.Fatalf("θ = %v after a tie at the kth, want 7", b.Theta())
	}
	b.Offer(7, 1)
	if b.Theta() != 6 {
		t.Fatalf("θ = %v, want 6", b.Theta())
	}
}

// A bound asked for more places than are ever offered never establishes.
func TestBoundNeverEstablishedBelowK(t *testing.T) {
	b := NewBound(100)
	for p := uint32(0); p < 99; p++ {
		b.Offer(p, float64(p))
		b.Offer(p, float64(p))
	}
	if established(b) || !math.IsInf(b.Theta(), 1) {
		t.Fatalf("99 places established a top-100 bound: θ = %v", b.Theta())
	}
}

// Concurrent offers (run under -race): every goroutine sees θ only fall,
// the established channel closes exactly once — a second close would
// panic — and the final θ is the kth-best over the distinct places
// however the duplicate offers interleaved.
func TestBoundConcurrentOffers(t *testing.T) {
	const k, places, offerers = 10, 400, 8
	score := func(p uint32) float64 { return float64((p*7919)%1009) / 8 } // ties included
	b := NewBound(k)
	var wg sync.WaitGroup
	for w := 0; w < offerers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			last := math.Inf(1)
			for i := 0; i < 2*places; i++ {
				p := uint32(rng.Intn(places))
				b.Offer(p, score(p))
				th := b.Theta()
				if th > last {
					t.Errorf("θ rose from %v to %v", last, th)
				}
				last = th
			}
			// Finish with a full sweep so every place was offered at least once.
			for p := uint32(0); p < places; p++ {
				b.Offer(p, score(p))
			}
		}(int64(w))
	}
	wg.Wait()
	all := make([]float64, places)
	for p := range all {
		all[p] = score(uint32(p))
	}
	slices.Sort(all)
	if !established(b) || b.Theta() != all[k-1] {
		t.Fatalf("θ = %v (established %v), want the %dth best %v", b.Theta(), established(b), k, all[k-1])
	}
}

// Two engines over disjoint halves of the places, evaluating the same
// query concurrently under one bound, together return the full engine's
// top-k, for every stream algorithm. Each half may return fewer than its
// private top-k; the (score, place) merge of the halves is what must
// match. TA ignores the bound and keeps returning its private answer.
func TestEnginesCooperateUnderBound(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(1500, 931))
	full := NewEngine(g, rdf.Outgoing)
	full.EnableReach()
	full.EnableAlpha(3)
	places := g.Places()
	var halves []*Engine
	for _, half := range [][]uint32{places[:len(places)/2], places[len(places)/2:]} {
		halves = append(halves, full.Subset(half))
	}
	qg := gen.NewQueryGen(g, rdf.Outgoing, 932)

	for qi := 0; qi < 6; qi++ {
		loc, kws := qg.Original(3)
		q := Query{Loc: loc, Keywords: kws, K: 4}
		for _, a := range streamAlgos {
			want, _, err := a.run(full, q, Options{})
			if err != nil {
				t.Fatal(err)
			}
			b := NewBound(q.K)
			parts := make([][]Result, len(halves))
			var wg sync.WaitGroup
			for i, h := range halves {
				wg.Add(1)
				go func(i int, h *Engine) {
					defer wg.Done()
					res, _, err := a.run(h, q, Options{Bound: b})
					if err != nil {
						t.Error(err)
					}
					parts[i] = res
				}(i, h)
			}
			wg.Wait()
			merged := append(append([]Result(nil), parts[0]...), parts[1]...)
			slices.SortFunc(merged, func(x, y Result) int {
				if x.Score != y.Score {
					return cmp.Compare(x.Score, y.Score)
				}
				return cmp.Compare(x.Place, y.Place)
			})
			if len(merged) > q.K {
				merged = merged[:q.K]
			}
			identicalResults(t, a.name, merged, want)
			if len(want) == q.K && b.Theta() != want[q.K-1].Score {
				t.Fatalf("%s: shared θ ended at %v, want the kth score %v", a.name, b.Theta(), want[q.K-1].Score)
			}
		}

		private, _, err := halves[0].TA(q, Options{})
		if err != nil {
			t.Fatal(err)
		}
		saturated := NewBound(q.K)
		for p := uint32(0); p < uint32(q.K); p++ {
			saturated.Offer(p, 0)
		}
		got, _, err := halves[0].TA(q, Options{Bound: saturated})
		if err != nil {
			t.Fatal(err)
		}
		identicalResults(t, "TA under a saturated bound", got, private)
	}
}

// A bound that k places elsewhere have already driven to θ = 0 ends the
// evaluation before any TQSP is constructed, and a place scoring exactly
// the shared θ is still admitted.
func TestBoundCeilingStopsWork(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(1500, 941))
	e := NewEngine(g, rdf.Outgoing)
	e.EnableReach()
	e.EnableAlpha(3)
	qg := gen.NewQueryGen(g, rdf.Outgoing, 942)
	loc, kws := qg.Original(3)
	q := Query{Loc: loc, Keywords: kws, K: 2}
	want, _, err := e.SP(q, Options{})
	if err != nil || len(want) != q.K {
		t.Fatalf("reference run: %d results, err %v", len(want), err)
	}
	const elsewhere = 1 << 30 // place IDs no graph this size uses

	zero := NewBound(q.K)
	zero.Offer(elsewhere, 0)
	zero.Offer(elsewhere+1, 0)
	got, stats, err := e.SP(q, Options{Bound: zero})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || stats.TQSPComputations != 0 {
		t.Errorf("under θ=0: %d results, %d TQSPs, want none", len(got), stats.TQSPComputations)
	}

	// Two places elsewhere tie the true kth score exactly: the strict
	// comparison must keep this engine's own kth place.
	tie := NewBound(q.K)
	tie.Offer(elsewhere, want[q.K-1].Score)
	tie.Offer(elsewhere+1, want[q.K-1].Score)
	got, _, err = e.SP(q, Options{Bound: tie})
	if err != nil {
		t.Fatal(err)
	}
	identicalResults(t, "tie at the shared θ", got, want)
}
