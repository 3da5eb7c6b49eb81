package shard_test

import (
	"context"
	"testing"

	"ksp"
	"ksp/internal/gen"
	"ksp/internal/rdf"
	"ksp/internal/shard"
)

// TestShardWorkGuard is the regression gate for the gather's shared
// threshold and head start, a count gate like
// TestScreenReducesConstructions: on a Yago-like graph under the paper's
// §6.1 query generator, four tiles
// together may construct at most 1.5× the TQSPs, and visit at most 1.5×
// the BFS vertices, of the single engine answering the same queries.
// Four private top-ks cost 4.4× / 4.1× here, the shared bound without
// the head start 2.3× / 2.2×, both together 1.17× / 1.14×; if the
// amplification creeps back, this fails before any benchmark notices.
func TestShardWorkGuard(t *testing.T) {
	g := gen.Generate(gen.YagoConfig(6000, 7))
	ds, err := ksp.NewDatasetFromGraph(g, ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := localCoordinator(t, ds, 4)
	qg := gen.NewQueryGen(g, rdf.Outgoing, 11)

	var single, tiles ksp.Stats
	for qi := 0; qi < 100; qi++ {
		loc, kws := qg.Original(5)
		query := ksp.Query{Loc: loc, Keywords: kws, K: 5}
		want, stats, err := ds.SearchWith(ksp.AlgoSP, query, ksp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		single.Add(stats)
		got, err := c.Search(context.Background(), shard.Request{
			X: loc.X, Y: loc.Y, Keywords: kws, K: query.K, Algo: ksp.AlgoSP,
		})
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, "guard", want, got)
		tiles.Add(&got.Stats)
	}

	const budget = 1.5
	ratio := func(a, b int64) float64 { return float64(a) / float64(b) }
	tqsp := ratio(tiles.TQSPComputations, single.TQSPComputations)
	bfs := ratio(tiles.BFSVertexVisits, single.BFSVertexVisits)
	t.Logf("4 tiles / single engine: TQSP %d / %d = %.2f×, BFS visits %d / %d = %.2f×",
		tiles.TQSPComputations, single.TQSPComputations, tqsp,
		tiles.BFSVertexVisits, single.BFSVertexVisits, bfs)
	if tqsp > budget {
		t.Errorf("4 tiles construct %.2f× the single engine's TQSPs, budget %.1f×", tqsp, budget)
	}
	if bfs > budget {
		t.Errorf("4 tiles visit %.2f× the single engine's BFS vertices, budget %.1f×", bfs, budget)
	}
}
