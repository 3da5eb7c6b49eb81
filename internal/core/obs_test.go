package core

import (
	"testing"
	"time"

	"ksp/internal/obs"
	"ksp/internal/paperdata"
	"ksp/internal/rdf"
)

// metricValue finds one sample in a registry snapshot; labels are given
// as alternating key, value strings.
func metricValue(t *testing.T, snap []obs.MetricPoint, name string, kv ...string) float64 {
	t.Helper()
	for _, p := range snap {
		if p.Name != name {
			continue
		}
		ok := true
		for i := 0; i < len(kv); i += 2 {
			if p.Labels[kv[i]] != kv[i+1] {
				ok = false
				break
			}
		}
		if ok {
			return p.Value
		}
	}
	t.Fatalf("metric %s %v not found", name, kv)
	return 0
}

// The engine flushes per-query Stats into the registry at query end; the
// cumulative series must agree with the Stats the same queries returned,
// and counters must be monotone across queries.
func TestEngineMetricsFlush(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	reg := obs.NewRegistry()
	e.EnableMetrics(reg)

	// Top-1 at q1: SPP screens p2 out (Example 8), so the screen's kills
	// show in the GETNEXT series.
	q := Query{Loc: f.Q1, Keywords: f.Keywords, K: 1}
	var agg Stats
	for _, a := range allAlgos {
		_, stats, err := a.run(e, q, Options{})
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		if a.name == "SPP" && stats.WindowScreenKilled == 0 {
			t.Errorf("SPP killed no candidate in the screen; the GETNEXT check below needs one")
		}
		agg.Add(stats)
	}

	snap := reg.Snapshot()
	for _, name := range []string{"BSP", "SPP", "SP", "TA"} {
		if got := metricValue(t, snap, "ksp_engine_queries_total", "algo", name); got != 1 {
			t.Errorf("queries_total{algo=%q} = %v, want 1", name, got)
		}
		if got := metricValue(t, snap, "ksp_engine_query_duration_seconds_count", "algo", name); got != 1 {
			t.Errorf("duration count{algo=%q} = %v, want 1", name, got)
		}
	}
	checks := []struct {
		metric string
		kv     []string
		want   int64
	}{
		{"ksp_engine_tqsp_computations_total", nil, agg.TQSPComputations},
		{"ksp_engine_getnext_rounds_total", nil, agg.PlacesRetrieved + agg.WindowScreenKilled},
		{"ksp_engine_bfs_vertex_visits_total", nil, agg.BFSVertexVisits},
		{"ksp_engine_reach_queries_total", nil, agg.ReachQueries},
		{"ksp_engine_pruning_hits_total", []string{"rule", "1"}, agg.PrunedUnqualified},
		{"ksp_engine_pruning_hits_total", []string{"rule", "2"}, agg.PrunedDynamicBound},
		{"ksp_engine_pruning_hits_total", []string{"rule", "3"}, agg.PrunedAlphaPlaces},
		{"ksp_engine_pruning_hits_total", []string{"rule", "4"}, agg.PrunedAlphaNodes},
	}
	for _, c := range checks {
		if got := metricValue(t, snap, c.metric, c.kv...); got != float64(c.want) {
			t.Errorf("%s%v = %v, want %d (the Stats the queries reported)", c.metric, c.kv, got, c.want)
		}
	}
	// Node accesses flow through the live hook, not the Stats flush; the
	// four runs all touch the R-tree.
	rtreeBefore := metricValue(t, snap, "ksp_engine_rtree_node_accesses_total")
	if rtreeBefore <= 0 {
		t.Errorf("rtree_node_accesses_total = %v, want > 0", rtreeBefore)
	}

	// Monotonicity: a second round only increases every counter.
	for _, a := range allAlgos {
		if _, _, err := a.run(e, q, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	snap2 := reg.Snapshot()
	for _, p := range snap {
		if got := metricValue(t, snap2, p.Name, flatten(p.Labels)...); got < p.Value {
			t.Errorf("%s%v decreased: %v -> %v", p.Name, p.Labels, p.Value, got)
		}
	}
	if got := metricValue(t, snap2, "ksp_engine_queries_total", "algo", "BSP"); got != 2 {
		t.Errorf("queries_total{algo=BSP} after second round = %v, want 2", got)
	}
}

func flatten(m map[string]string) []string {
	var out []string
	for k, v := range m {
		out = append(out, k, v)
	}
	return out
}

// A failed query must land in the error counter, not in the completed
// queries.
func TestEngineMetricsErrors(t *testing.T) {
	f := paperdata.Figure1()
	e := NewEngine(f.G, rdf.Outgoing)
	e.EnableReach()
	reg := obs.NewRegistry()
	e.EnableMetrics(reg)

	q := Query{Loc: f.Q1, Keywords: f.Keywords, K: 2}
	if _, _, err := e.SPP(q, Options{}); err != nil {
		t.Fatal(err)
	}
	// SP without the α index fails; the failure must count as an error,
	// not as a completed SP query.
	if _, _, err := e.SP(q, Options{}); err == nil {
		t.Fatal("SP without α index should error")
	}
	snap := reg.Snapshot()
	if got := metricValue(t, snap, "ksp_engine_query_errors_total"); got != 1 {
		t.Errorf("query_errors_total = %v, want 1", got)
	}
	if got := metricValue(t, snap, "ksp_engine_queries_total", "algo", "SP"); got != 0 {
		t.Errorf("queries_total{algo=SP} = %v, want 0 after a failed query", got)
	}
}

// collectSpans gathers every span named name in the tree, depth-first.
func collectSpans(j *obs.SpanJSON, name string) []*obs.SpanJSON {
	var out []*obs.SpanJSON
	var walk func(*obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		if s.Name == name {
			out = append(out, s)
		}
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(j)
	return out
}

func spanAttr(s *obs.SpanJSON, key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// A traced query records one prepare span and one candidate span per
// evaluated place directly under the root, each constructed candidate
// carrying its tqsp child. The query uses k larger than the
// qualified-place count so the stream is not cut early.
func TestTraceSpanTree(t *testing.T) {
	f, e := fixtureEngine(t, 3)
	q := Query{Loc: f.Q1, Keywords: f.Keywords, K: 10}

	tr := obs.NewTrace("search")
	if _, _, err := e.SPP(q, Options{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	tr.Finish()
	root := tr.JSON()
	seen := map[string]bool{}
	for _, c := range collectSpans(root, "candidate") {
		p, ok := spanAttr(c, "place")
		if !ok {
			t.Fatalf("candidate span without place attr: %+v", c)
		}
		if seen[p] {
			t.Fatalf("duplicate candidate span for place %s", p)
		}
		seen[p] = true
	}
	if len(seen) == 0 {
		t.Fatal("run recorded no candidate spans")
	}
	for _, c := range root.Children {
		if c.Name != "prepare" && c.Name != "candidate" {
			t.Errorf("unexpected root child %q", c.Name)
		}
	}
	if len(collectSpans(root, "tqsp")) == 0 {
		t.Error("tqsp spans missing")
	}
	if len(collectSpans(root, "prepare")) != 1 {
		t.Error("prepare span missing")
	}
}

// The disabled path — nil engine metrics, nil trace — must not allocate:
// these calls sit on the per-candidate and per-query hot paths.
func TestDisabledObservabilityZeroAlloc(t *testing.T) {
	e := &Engine{} // EnableMetrics never called
	st := &Stats{TQSPComputations: 3, PlacesRetrieved: 5}
	var err error
	s := &searcher{} // curSpan nil, as in an untraced query
	n := testing.AllocsPerRun(1000, func() {
		e.noteQuery(int(AlgoBSP), st, time.Millisecond)
		e.noteOutcome(int(AlgoSPP), st, &err)
		e.noteRTreeAccess()
		var tr *obs.Trace
		root := tr.Root()
		cs := root.Child("candidate")
		cs.SetInt("place", 42)
		cs.SetFloat("dist", 1.5)
		tq := s.curSpan.Child("tqsp")
		tq.SetStr("outcome", "pruned-rule2")
		tq.End()
		cs.End()
	})
	if n != 0 {
		t.Fatalf("disabled observability path allocates %v allocs/op, want 0", n)
	}
}
