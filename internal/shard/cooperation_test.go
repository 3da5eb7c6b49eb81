package shard_test

// Exactness and soundness of a gather whose tiles cooperate on one
// threshold, under the failure modes that make offers outlive or
// outnumber results: a hedged tile offering twice, a truncated response,
// a tile lost after it offered. Degraded answers are judged against a
// brute-force evaluator over the raw graph that shares no code with the
// engine.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"ksp"
	"ksp/internal/faultinject"
	"ksp/internal/gen"
	"ksp/internal/rdf"
	"ksp/internal/shard"
)

// slowTile is a Local tile that dawdles after evaluating: its places are
// offered long before it answers, so a tiny HedgeAfter launches a second
// attempt that offers them all again. Embedding keeps it live-publishing.
type slowTile struct {
	*shard.Local
	delay time.Duration
}

func (s slowTile) Search(ctx context.Context, req shard.Request) (*shard.Response, error) {
	resp, err := s.Local.Search(ctx, req)
	select {
	case <-time.After(s.delay):
	case <-ctx.Done():
	}
	return resp, err
}

// lostTile evaluates — and offers — like a Local tile, then fails: the
// gather loses results whose scores already shaped the shared θ.
type lostTile struct{ *shard.Local }

func (l lostTile) Search(ctx context.Context, req shard.Request) (*shard.Response, error) {
	if _, err := l.Local.Search(ctx, req); err != nil {
		return nil, err
	}
	return nil, errors.New("lost after offering")
}

// yagoFixture is a Yago-like graph served through the public API, with
// the raw graph kept for the brute-force evaluator.
func yagoFixture(t *testing.T) (*rdf.Graph, *ksp.Dataset, *gen.QueryGen) {
	t.Helper()
	g := gen.Generate(gen.YagoConfig(3000, 303))
	ds, err := ksp.NewDatasetFromGraph(g, ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return g, ds, gen.NewQueryGen(g, rdf.Outgoing, 404)
}

// Every tile hedged, both attempts of each offering the same places: the
// bound counts a place once, so θ never sinks below the true kth score
// and the answer stays bit-identical to the single engine's.
func TestHedgedTilesOfferingTwiceStayExact(t *testing.T) {
	_, ds, qg := yagoFixture(t)
	cfg := quietConfig()
	cfg.HedgeAfter = time.Millisecond
	c := coordinatorOf(t, cfg, localMembers(t, ds, 3, func(_ int, l *shard.Local) shard.Shard {
		return slowTile{Local: l, delay: 15 * time.Millisecond}
	})...)

	hedged := 0
	for qi := 0; qi < 6; qi++ {
		loc, kws := qg.Original(3)
		query := ksp.Query{Loc: loc, Keywords: kws, K: 5}
		want, _, err := ds.SearchWith(ksp.AlgoSP, query, ksp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.Search(context.Background(), shard.Request{
			X: loc.X, Y: loc.Y, Keywords: kws, K: query.K, Algo: ksp.AlgoSP,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("hedged/q%d", qi), want, g)
		for _, st := range g.Shards {
			if st.Hedged {
				hedged++
			}
		}
	}
	if hedged == 0 {
		t.Fatal("no call was ever hedged: the test exercised nothing")
	}
}

// bruteForce answers a kSP query over the raw graph: one reverse BFS per
// keyword gives every vertex its hop distance to that keyword, a place's
// looseness is 1 + the sum, its score looseness × Euclidean distance,
// and the answer is the full (score, place) sort. No index, no pruning,
// nothing imported from the engine.
func bruteForce(g *rdf.Graph, loc ksp.Point, keywords []string) []ksp.Result {
	n := g.NumVertices()
	loose := make([]float64, n)
	for v := range loose {
		loose[v] = 1
	}
	for _, kw := range keywords {
		term, ok := g.Vocab.Lookup(kw)
		if !ok {
			return nil
		}
		hops := make([]int, n)
		var frontier []uint32
		for v := uint32(0); int(v) < n; v++ {
			hops[v] = -1
			if g.HasTerm(v, term) {
				hops[v] = 0
				frontier = append(frontier, v)
			}
		}
		for d := 1; len(frontier) > 0; d++ {
			var next []uint32
			for _, v := range frontier {
				for _, u := range g.In(v) {
					if hops[u] < 0 {
						hops[u] = d
						next = append(next, u)
					}
				}
			}
			frontier = next
		}
		for v := range loose {
			if hops[v] < 0 {
				loose[v] = math.Inf(1)
			} else {
				loose[v] += float64(hops[v])
			}
		}
	}
	var all []ksp.Result
	for _, p := range g.Places() {
		if math.IsInf(loose[p], 1) {
			continue
		}
		pl := g.Loc(p)
		dist := math.Sqrt((pl.X-loc.X)*(pl.X-loc.X) + (pl.Y-loc.Y)*(pl.Y-loc.Y))
		all = append(all, ksp.Result{Place: p, Score: loose[p] * dist})
	}
	slices.SortFunc(all, func(a, b ksp.Result) int {
		if a.Score != b.Score {
			return cmp.Compare(a.Score, b.Score)
		}
		return cmp.Compare(a.Place, b.Place)
	})
	return all
}

// requireSound checks a degraded gather against the brute-force ranking:
// every result flagged exact holds the same rank, place and score there,
// and whatever is returned is at least a genuine (place, score) pair.
func requireSound(t *testing.T, label string, truth []ksp.Result, g *shard.Gather) (exact int) {
	t.Helper()
	scoreOf := make(map[uint32]float64, len(truth))
	for _, r := range truth {
		scoreOf[r.Place] = r.Score
	}
	for i, r := range g.Results {
		if s, ok := scoreOf[r.Place]; !ok || s != r.Score {
			t.Fatalf("%s: result %d (place %d, score %v) is not a genuine pair (brute force: %v, %v)", label, i, r.Place, r.Score, s, ok)
		}
		if !r.Exact {
			continue
		}
		exact++
		if i >= len(truth) || truth[i].Place != r.Place || truth[i].Score != r.Score {
			t.Fatalf("%s: result %d flagged exact is (place %d, score %v); brute force ranks (place %d, score %v) there",
				label, i, r.Place, r.Score, truth[i].Place, truth[i].Score)
		}
		if g.Partial && r.Score >= g.Bound {
			t.Fatalf("%s: result %d flagged exact at score %v, not below the floor %v", label, i, r.Score, g.Bound)
		}
	}
	return exact
}

// Offers that never become results — dropped by an injected truncation,
// or lost with a tile that failed after offering — still tightened θ for
// everyone else. The degraded answer must stay sound regardless: every
// result flagged exact sits at its brute-force rank with its brute-force
// score.
func TestDegradedGatherSoundAgainstBruteForce(t *testing.T) {
	g, ds, qg := yagoFixture(t)
	type query struct {
		loc   ksp.Point
		kws   []string
		truth []ksp.Result
	}
	queries := make([]query, 10)
	for i := range queries {
		loc, kws := qg.Original(3)
		queries[i] = query{loc, kws, bruteForce(g, loc, kws)}
	}
	cfg := quietConfig()
	cfg.MaxAttempts = 1
	cfg.BreakerThreshold = 1 << 20 // keep the lost tile in play for every query

	run := func(t *testing.T, c *shard.Coordinator) {
		t.Helper()
		partial, exact := 0, 0
		for qi, q := range queries {
			got, err := c.Search(context.Background(), shard.Request{
				X: q.loc.X, Y: q.loc.Y, Keywords: q.kws, K: 5, Algo: ksp.AlgoSP,
			})
			if errors.Is(err, shard.ErrAllShardsFailed) {
				// The lost tile's offers pruned every other tile, so nothing
				// merged: the gather claims nothing, which is sound.
				continue
			}
			if err != nil {
				t.Fatalf("q%d: %v", qi, err)
			}
			if got.Partial {
				partial++
			}
			exact += requireSound(t, fmt.Sprintf("q%d", qi), q.truth, got)
		}
		if partial == 0 || exact == 0 {
			t.Fatalf("%d partial gathers, %d exact results: the case exercised nothing", partial, exact)
		}
	}

	t.Run("truncated", func(t *testing.T) {
		plan := faultinject.NewPlan(5)
		plan.Add(faultinject.Fault{Point: shard.PointTruncate, Action: faultinject.Panic, Prob: 0.5})
		faultinject.Activate(plan)
		t.Cleanup(faultinject.Deactivate)
		run(t, coordinatorOf(t, cfg, localMembers(t, ds, 4, nil)...))
	})

	// Each tile in turn is the one lost after offering, so the loss hits
	// near and far tiles of some query alike.
	for lost := 0; lost < 4; lost++ {
		lost := lost
		t.Run(fmt.Sprintf("lost-tile%d", lost), func(t *testing.T) {
			run(t, coordinatorOf(t, cfg, localMembers(t, ds, 4, func(i int, l *shard.Local) shard.Shard {
				if i == lost {
					return lostTile{l}
				}
				return l
			})...))
		})
	}
}
