package core

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"ksp/internal/alpha"
	"ksp/internal/gen"
	"ksp/internal/geo"
	"ksp/internal/rdf"
)

// refSPSource is the reference frontier for spSource: Algorithm 4's
// queue with every place under θ pushed at its leaf's expansion, as SP
// ran before leaf runs. spSource must produce its stream and its
// counters exactly.
type refSPSource struct {
	e       *Engine
	qv      *alpha.QueryView
	hk      *topK
	qloc    geo.Point
	maxDist float64
	stats   *Stats
	pqueue  spHeap
	pushes  int
}

// refPlace is spEntry.node of a place in the reference queue; it carries
// runTag, so spHeap orders it as a place.
const refPlace = ^uint32(0)

func (s *refSPSource) next() (candidate, bool) {
	for len(s.pqueue) > 0 {
		ent := s.pqueue.pop()
		if ent.bound >= s.hk.theta() {
			return candidate{}, false
		}
		if ent.node == refPlace {
			return candidate{place: ent.place, dist: ent.dist, bound: ent.bound}, true
		}
		s.stats.RTreeNodeAccesses++
		tree, n := s.e.Tree, ent.node
		th := s.hk.theta()
		if tree.IsLeaf(n) {
			ids, locs := tree.Leaf(n)
			for i, loc := range locs {
				d := s.qloc.Dist(loc)
				if s.maxDist > 0 && d > s.maxDist {
					continue
				}
				fb := s.e.Rank.Score(s.qv.PlaceBound(ids[i]), d)
				if fb < th {
					s.pushes++
					s.pqueue.push(spEntry{bound: fb, dist: d, node: refPlace, place: ids[i]})
				} else {
					s.stats.PrunedAlphaPlaces++
				}
			}
		} else {
			for _, ch := range tree.Children(n) {
				d := tree.Rect(ch).MinDist(s.qloc)
				if s.maxDist > 0 && d > s.maxDist {
					continue
				}
				fb := s.e.Rank.Score(s.qv.NodeBound(ch), d)
				if fb < th {
					s.pqueue.push(spEntry{bound: fb, dist: d, node: ch})
				} else {
					s.stats.PrunedAlphaNodes++
				}
			}
		}
	}
	return candidate{}, false
}

func (s *refSPSource) close() {}

// spStream is what the frontier test drives: spSource or the reference.
type spStream interface {
	next() (candidate, bool)
	close()
}

// spStep is one candidate a driven stream emitted below θ.
type spStep struct {
	place       uint32
	dist, bound float64
}

// driveSP evaluates q over the stream mk opens the way Engine.run does:
// one candidate at a time, put through SP's screen, then Rule 2 and the
// top-k, so θ moves as it does in a real query. It returns every
// candidate the stream emitted below θ and the counters.
func driveSP(t *testing.T, e *Engine, q Query,
	mk func(pq *prepQuery, qv *alpha.QueryView, hk *topK, st *Stats) spStream) ([]spStep, Stats, []Result) {
	t.Helper()
	var st Stats
	pq, err := e.prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer e.releasePrep(pq)
	hk := newTopK(q.K, nil)
	if !pq.answerable {
		return nil, st, nil
	}
	qv, err := pq.queryView(e)
	if err != nil {
		t.Fatal(err)
	}
	src := mk(pq, qv, hk, &st)
	defer src.close()
	rule1, rule2 := algorithms[AlgoSP].rules(e, Options{})
	scr := e.newScreen(pq, &st, rule1, rule2)
	s := newSearcher(e, pq, &st, false)
	defer s.release()
	var steps []spStep
	for {
		c, ok := src.next()
		if !ok || c.bound >= hk.theta() {
			break
		}
		steps = append(steps, spStep{place: c.place, dist: c.dist, bound: c.bound})
		st.WindowCandidates++
		if scr.kills(&c, hk.theta()) {
			st.WindowScreenKilled++
			continue
		}
		st.PlacesRetrieved++
		e.evaluate(s, &c, hk, rule2)
		e.offer(hk, &c)
	}
	st.SemanticTime = 0
	return steps, st, hk.sorted()
}

// dupCoords returns g with every place moved onto a coarse grid, so that
// many places share a location and, with equal α-looseness, tie on their
// bound inside one R-tree leaf.
func dupCoords(t *testing.T, g *rdf.Graph) *rdf.Graph {
	a := g.Arrays()
	a.Coords = append([]geo.Point(nil), a.Coords...)
	for i, p := range a.Coords {
		a.Coords[i] = geo.Point{X: math.Floor(p.X/8) * 8, Y: math.Floor(p.Y/8) * 8}
	}
	dg, err := rdf.FromArrays(a, g.Analyzer())
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

// TestSPLeafRunsMatchAllPush pins leaf runs to the all-push frontier they
// replace: on Yago-like and DBpedia-like data, and on DBpedia-like data
// whose places share coordinates, at k = 1, 5 and 20, with and without
// MaxDist, spSource emits the reference's (place, dist, bound) sequence
// and counts the same. The engine's own SP run must count the same too,
// so the drive is the engine's loop.
func TestSPLeafRunsMatchAllPush(t *testing.T) {
	yago := gen.Generate(gen.YagoConfig(2500, 4501))
	dbp := gen.Generate(gen.DBpediaConfig(2500, 4502))
	fixtures := []struct {
		name string
		g    *rdf.Graph
	}{
		{"yago", yago},
		{"dbpedia", dbp},
		{"dbpedia-dupcoords", dupCoords(t, dbp)},
	}
	for fi, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			e := NewEngine(fx.g, rdf.Outgoing)
			e.EnableReach()
			e.EnableAlpha(3)
			qg := gen.NewQueryGen(fx.g, rdf.Outgoing, int64(4510+fi))
			var pops, pushes, leafTies int
			for qi := 0; qi < 8; qi++ {
				loc, kws := qg.Original(2 + qi%4)
				var dists []float64
				for _, p := range fx.g.Places() {
					dists = append(dists, loc.Dist(fx.g.Loc(p)))
				}
				sort.Float64s(dists)
				for _, k := range []int{1, 5, 20} {
					for _, maxDist := range []float64{0, dists[len(dists)/10]} {
						q := Query{Loc: loc, Keywords: kws, K: k}
						label := fmt.Sprintf("q%d k=%d maxDist=%g", qi, k, maxDist)
						var ref *refSPSource
						wantSteps, wantStats, wantRes := driveSP(t, e, q,
							func(pq *prepQuery, qv *alpha.QueryView, hk *topK, st *Stats) spStream {
								ref = &refSPSource{e: e, qv: qv, hk: hk, qloc: loc, maxDist: maxDist, stats: st}
								root := e.Tree.Root()
								d := e.Tree.Rect(root).MinDist(loc)
								ref.pqueue.push(spEntry{bound: e.Rank.Score(qv.NodeBound(root), d), dist: d, node: root})
								return ref
							})
						gotSteps, gotStats, gotRes := driveSP(t, e, q,
							func(pq *prepQuery, qv *alpha.QueryView, hk *topK, st *Stats) spStream {
								s := &spSource{e: e, qv: qv, hk: hk, qloc: loc, maxDist: maxDist, stats: st, f: e.pools.getFrontier()}
								root := e.Tree.Root()
								d := e.Tree.Rect(root).MinDist(loc)
								s.f.queue.push(spEntry{bound: e.Rank.Score(qv.NodeBound(root), d), dist: d, node: root})
								return s
							})
						if len(gotSteps) != len(wantSteps) {
							t.Fatalf("%s: %d steps, reference %d", label, len(gotSteps), len(wantSteps))
						}
						for i := range wantSteps {
							if gotSteps[i] != wantSteps[i] {
								t.Fatalf("%s: step %d is %+v, reference %+v", label, i, gotSteps[i], wantSteps[i])
							}
							if i > 0 && wantSteps[i].bound == wantSteps[i-1].bound {
								leafTies++
							}
						}
						pops += len(wantSteps)
						if gotStats != wantStats {
							t.Fatalf("%s: counters %+v, reference %+v", label, gotStats, wantStats)
						}
						identicalResults(t, label, gotRes, wantRes)
						pushes += ref.pushes

						_, est, err := e.SP(q, Options{MaxDist: maxDist})
						if err != nil {
							t.Fatal(err)
						}
						est.SemanticTime, est.OtherTime = 0, 0
						if *est != gotStats {
							t.Fatalf("%s: engine counts %+v, drive %+v", label, *est, gotStats)
						}
					}
				}
			}
			t.Logf("%d candidates emitted against %d places pushed by the reference; %d equal-bound neighbours", pops, pushes, leafTies)
			if fx.name == "dbpedia-dupcoords" && leafTies == 0 {
				t.Fatal("the shared-coordinate fixture produced no tied bounds")
			}
		})
	}
}
