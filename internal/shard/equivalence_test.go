package shard_test

// The scatter-gather soundness property (DESIGN.md §14): when every
// shard answers, the coordinator's merged top-k is bit-identical to the
// single-engine answer over the whole dataset — same places, same
// scores, same order — across shard counts. The
// proof sketch is that each shard runs the identical engine over a
// place-subset of the same graph (looseness is a graph property,
// unaffected by partitioning) and discards only places that k offered
// places strictly beat, so the global top-k is a subset of the union of
// the per-shard answers, and the merge re-imposes the engine's
// (score, place) order.

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"

	"ksp"
	"ksp/internal/gen"
	"ksp/internal/nt"
	"ksp/internal/rdf"
	"ksp/internal/server"
	"ksp/internal/shard"
)

// buildDataset generates a synthetic graph and loads it through the
// public API, returning the dataset and a query generator over it.
func buildDataset(t *testing.T) (*ksp.Dataset, *gen.QueryGen) {
	t.Helper()
	g := gen.Generate(gen.DBpediaConfig(1200, 101))
	var buf bytes.Buffer
	if err := nt.WriteGraph(g, &buf); err != nil {
		t.Fatal(err)
	}
	ds, err := ksp.Open(&buf, ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds, gen.NewQueryGen(g, rdf.Outgoing, 202)
}

func quietConfig() shard.Config {
	return shard.Config{HedgeAfter: -1, HealthInterval: -1}
}

// localMembers partitions ds into n tiles and wraps each as a Local
// shard; wrap, when non-nil, substitutes a test double around tile i.
func localMembers(t *testing.T, ds *ksp.Dataset, n int, wrap func(i int, l *shard.Local) shard.Shard) []shard.Shard {
	t.Helper()
	tiles, err := ds.PartitionSpatial(n)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]shard.Shard, len(tiles))
	for i, tile := range tiles {
		l := shard.NewLocal(fmt.Sprintf("tile%d", i), tile)
		members[i] = l
		if wrap != nil {
			members[i] = wrap(i, l)
		}
	}
	return members
}

// coordinatorOf builds a coordinator that the test's cleanup closes.
func coordinatorOf(t *testing.T, cfg shard.Config, members ...shard.Shard) *shard.Coordinator {
	t.Helper()
	c, err := shard.New(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// localCoordinator partitions ds into n tiles and builds a coordinator
// of Local shards over them.
func localCoordinator(t *testing.T, ds *ksp.Dataset, n int) *shard.Coordinator {
	t.Helper()
	return coordinatorOf(t, quietConfig(), localMembers(t, ds, n, nil)...)
}

// requireIdentical asserts the gather matches the single-engine answer
// bit for bit.
func requireIdentical(t *testing.T, label string, want []ksp.Result, g *shard.Gather) {
	t.Helper()
	if g.Partial || g.Degraded {
		t.Fatalf("%s: healthy gather flagged partial=%v degraded=%v", label, g.Partial, g.Degraded)
	}
	if len(g.Results) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(g.Results), len(want))
	}
	for i := range want {
		got := g.Results[i]
		if got.Place != want[i].Place || got.Score != want[i].Score {
			t.Fatalf("%s: result %d = (place %d, score %v), want (place %d, score %v)",
				label, i, got.Place, got.Score, want[i].Place, want[i].Score)
		}
		if !got.Exact {
			t.Fatalf("%s: result %d of a complete gather not exact", label, i)
		}
	}
}

// shardCounts is the tile-count axis of the equivalence sweeps.
var shardCounts = []int{1, 2, 4, 7}

// sweepEquivalence checks one query, at one K and radius, against the
// single engine over shardCount.
func sweepEquivalence(t *testing.T, label string, ds *ksp.Dataset, coords map[int]*shard.Coordinator, query ksp.Query, maxDist float64) {
	t.Helper()
	want, _, err := ds.SearchWith(ksp.AlgoSP, query, ksp.Options{MaxDist: maxDist})
	if err != nil {
		t.Fatal(err)
	}
	req := shard.Request{
		X: query.Loc.X, Y: query.Loc.Y, Keywords: query.Keywords, K: query.K,
		Algo: ksp.AlgoSP, MaxDist: maxDist,
	}
	for _, n := range shardCounts {
		cell := fmt.Sprintf("%s/k%d/r%g/shards%d", label, query.K, maxDist, n)
		g, err := coords[n].Search(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		requireIdentical(t, cell, want, g)
	}
}

// tieFixture is a small graph built to hurt the shared threshold: six
// places on one coordinate with one document (score exactly 5 from the
// origin for "roman history", on place IDs that STR cuts across tiles),
// a seventh reaching the same score through another (looseness,
// distance) pair (2 × 2.5), two strictly better places, and a dozen
// worse ones. Any K from 3 to 9 cuts through the tie class.
func tieFixture() string {
	var b strings.Builder
	place := func(name string, x, y float64, label string) {
		fmt.Fprintf(&b, "<ex:%s> <ex:label> %q .\n", name, label)
		fmt.Fprintf(&b, "<ex:%s> <ex:hasGeometry> \"POINT(%g %g)\"^^<http://www.opengis.net/ont/geosparql#wktLiteral> .\n", name, x, y)
	}
	place("near1", 1, 0, "roman history")
	place("near2", 0, 2, "roman history")
	for i := 0; i < 6; i++ {
		place(fmt.Sprintf("clone%d", i), 3, 4, "roman history")
	}
	place("hop", 2.5, 0, "roman")
	b.WriteString("<ex:hop> <ex:near> <ex:annex> .\n<ex:annex> <ex:label> \"history\" .\n")
	for i := 0; i < 12; i++ {
		place(fmt.Sprintf("far%d", i), 6+float64(i), 1+float64(i%3), "roman history")
	}
	return b.String()
}

// Multi-shard scatter-gather is bit-identical to single-shard
// evaluation across shard counts, at K = 1,
// the serving default 5 and a K beyond the place count, with and
// without a MaxDist radius — and on exact score ties straddling rank K,
// where a tile must keep a place scoring exactly the shared θ for the
// merge's (score, place) tie-break to decide as the single engine does.
func TestShardedEquivalence(t *testing.T) {
	t.Run("random", func(t *testing.T) {
		ds, qg := buildDataset(t)
		coords := map[int]*shard.Coordinator{}
		for _, n := range shardCounts {
			coords[n] = localCoordinator(t, ds, n)
		}
		beyond := ds.Stats().Places + 10
		for qi := 0; qi < 4; qi++ {
			loc, kws := qg.Original(3)
			query := ksp.Query{Loc: ksp.Point{X: loc.X, Y: loc.Y}, Keywords: kws}
			label := fmt.Sprintf("q%d", qi)
			for _, k := range []int{1, 5, beyond} {
				query.K = k
				sweepEquivalence(t, label, ds, coords, query, 0)
			}
			query.K = 5
			sweepEquivalence(t, label, ds, coords, query, 0.2)
		}
	})
	// Ties are pinned for SP only: its stream is ordered by (α-bound,
	// place ID), so arrival order agrees with the merge's tie-break. The
	// distance-ordered BSP/SPP streams break equal distances by R-tree
	// heap order, in the single engine and in every tile alike.
	t.Run("ties", func(t *testing.T) {
		ds, err := ksp.Open(strings.NewReader(tieFixture()), ksp.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		coords := map[int]*shard.Coordinator{}
		straddled := false
		for _, n := range shardCounts {
			coords[n] = localCoordinator(t, ds, n)
			tiles, err := ds.PartitionSpatial(n)
			if err != nil {
				t.Fatal(err)
			}
			holding := 0
			for _, tile := range tiles {
				if near := tile.NearestPlaces(ksp.Point{X: 3, Y: 4}, 1); len(near) == 1 && near[0].Dist == 0 {
					holding++
				}
			}
			straddled = straddled || holding > 1
		}
		if !straddled {
			t.Fatal("fixture lost its point: no partition splits the co-located places across tiles")
		}
		query := ksp.Query{Keywords: []string{"roman", "history"}}
		for _, k := range []int{1, 2, 3, 4, 5, 8, 9, 10, 40} {
			query.K = k
			sweepEquivalence(t, "ties", ds, coords, query, 0)
		}
		query.K = 4
		sweepEquivalence(t, "ties", ds, coords, query, 5) // the radius passes through the tie class
	})
}

// The same property through Remote shards: each tile served by a real
// internal/server instance, spoken to over the /search wire format. The
// round trip (engine → JSON → coordinator merge) must preserve scores
// bit-for-bit (encoding/json emits shortest-round-trip float64).
func TestShardedEquivalenceRemote(t *testing.T) {
	ds, qg := buildDataset(t)
	tiles, err := ds.PartitionSpatial(3)
	if err != nil {
		t.Fatal(err)
	}
	members := make([]shard.Shard, len(tiles))
	for i, tile := range tiles {
		srv := httptest.NewServer(server.New(tile))
		t.Cleanup(srv.Close)
		members[i] = shard.NewRemote(fmt.Sprintf("remote%d", i), srv.URL, srv.Client())
	}
	c, err := shard.New(members, quietConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)

	// Ping fetches each peer's MBR from /stats, enabling distance
	// pruning exactly as a health-checked production coordinator would.
	for _, m := range members {
		if err := m.Ping(context.Background()); err != nil {
			t.Fatal(err)
		}
		if _, ok := m.Bounds(); !ok {
			t.Fatalf("%s: bounds not fetched by ping", m.Name())
		}
	}

	for qi := 0; qi < 3; qi++ {
		loc, kws := qg.Original(3)
		query := ksp.Query{Loc: ksp.Point{X: loc.X, Y: loc.Y}, Keywords: kws, K: 5}
		want, _, err := ds.SearchWith(ksp.AlgoSP, query, ksp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.Search(context.Background(), shard.Request{
			X: query.Loc.X, Y: query.Loc.Y, Keywords: kws, K: query.K, Algo: ksp.AlgoSP,
		})
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		requireIdentical(t, fmt.Sprintf("remote/q%d", qi), want, g)
	}
}

// MaxDist propagates through the gather: the merged answer matches the
// single-engine radius-restricted answer, and out-of-radius shards are
// skipped rather than queried.
func TestShardedEquivalenceMaxDist(t *testing.T) {
	ds, qg := buildDataset(t)
	c := localCoordinator(t, ds, 4)
	for qi := 0; qi < 3; qi++ {
		loc, kws := qg.Original(3)
		query := ksp.Query{Loc: ksp.Point{X: loc.X, Y: loc.Y}, Keywords: kws, K: 5}
		const radius = 0.2
		want, _, err := ds.SearchWith(ksp.AlgoSP, query, ksp.Options{MaxDist: radius})
		if err != nil {
			t.Fatal(err)
		}
		g, err := c.Search(context.Background(), shard.Request{
			X: query.Loc.X, Y: query.Loc.Y, Keywords: kws, K: query.K,
			Algo: ksp.AlgoSP, MaxDist: radius,
		})
		if err != nil {
			t.Fatalf("q%d: %v", qi, err)
		}
		requireIdentical(t, fmt.Sprintf("maxdist/q%d", qi), want, g)
	}
}
