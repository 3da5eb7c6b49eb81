package main

import (
	"fmt"
	"math"
	"sort"
	"time"

	"ksp"
	"ksp/internal/rdf"
)

// bruteForce answers a kSP query over the raw graph with no index and no
// pruning, sharing no code with internal/core, alpha, reach or rtree.
// For each keyword it runs one plain BFS over reversed edges from every
// vertex whose document holds the keyword, which yields dg(v, keyword)
// for all v at once; a place's looseness is 1 + the sum of those hop
// distances, its score looseness × Euclidean distance (Equation 2), and
// the answer is the full sort by (score, place ID) cut at k.
func bruteForce(g *rdf.Graph, x, y float64, keywords []string, k int) []hit {
	var terms []uint32
	seen := map[uint32]bool{}
	for _, kw := range keywords {
		for _, tok := range g.Analyze(kw) {
			t, ok := g.Vocab.Lookup(tok)
			if !ok {
				return nil // a keyword no document holds: nothing qualifies
			}
			if !seen[t] {
				seen[t] = true
				terms = append(terms, t)
			}
		}
	}
	n := g.NumVertices()
	hops := make([][]int32, len(terms))
	for i, t := range terms {
		dist := make([]int32, n)
		var frontier []uint32
		for v := uint32(0); int(v) < n; v++ {
			dist[v] = -1
			if g.HasTerm(v, t) {
				dist[v] = 0
				frontier = append(frontier, v)
			}
		}
		for d := int32(1); len(frontier) > 0; d++ {
			var next []uint32
			for _, v := range frontier {
				for _, u := range g.In(v) {
					if dist[u] < 0 {
						dist[u] = d
						next = append(next, u)
					}
				}
			}
			frontier = next
		}
		hops[i] = dist
	}
	type scored struct {
		place uint32
		score float64
	}
	var all []scored
places:
	for _, p := range g.Places() {
		loose := 1.0
		for i := range terms {
			d := hops[i][p]
			if d < 0 {
				continue places
			}
			loose += float64(d)
		}
		loc := g.Loc(p)
		dx, dy := loc.X-x, loc.Y-y
		all = append(all, scored{p, loose * math.Sqrt(dx*dx+dy*dy)})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].score != all[j].score {
			return all[i].score < all[j].score
		}
		return all[i].place < all[j].place
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]hit, len(all))
	for i, s := range all {
		out[i] = hit{uri: g.URI(s.place), score: s.score}
	}
	return out
}

// oracleQueries is how many pool queries are checked against bruteForce
// per run; oracleBudget caps the time spent on them.
const (
	oracleQueries = 8
	oracleBudget  = 10 * time.Second
)

// checkOracle compares the library's reference answers with bruteForce on
// oracleQueries pool queries drawn by the seed (different seeds cover
// different parts of the pool), so the reference itself is anchored to
// something that shares none of the engine's code.
func (in *inputs) checkOracle(ds *ksp.Dataset, seed int64) error {
	sample := shuffled(len(in.pool), seed+12)[:min(oracleQueries, len(in.pool))]
	if err := in.expect(ds, sample); err != nil {
		return err
	}
	start := time.Now()
	for n, i := range sample {
		q := in.pool[i].q
		want := bruteForce(in.g, q.Loc.X, q.Loc.Y, q.Keywords, q.K)
		if !sameHits(in.expected[i], want) {
			return fmt.Errorf("query %d: library answer %v differs from brute force %v", i, in.expected[i], want)
		}
		if time.Since(start) > oracleBudget {
			return fmt.Errorf("brute-force check exceeded %v after %d queries", oracleBudget, n+1)
		}
	}
	return nil
}
