package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ksp"
	"ksp/internal/obs"
	"ksp/internal/shard"
)

// findTreeSpans returns every span with the given name in an exported
// trace tree.
func findTreeSpans(root *obs.SpanJSON, name string) []*obs.SpanJSON {
	if root == nil {
		return nil
	}
	var out []*obs.SpanJSON
	if root.Name == name {
		out = append(out, root)
	}
	for _, c := range root.Children {
		out = append(out, findTreeSpans(c, name)...)
	}
	return out
}

func treeAttr(s *obs.SpanJSON, key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// ?explain=1 attaches the structured plan + profile; without the
// parameter the field stays absent.
func TestExplainParam(t *testing.T) {
	srv := testServer(t)
	var got SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2&explain=1", &got)
	if got.Explain == nil {
		t.Fatal("?explain=1 returned no explain report")
	}
	p := got.Explain.Plan
	if p.Algo != "SP" || p.K != 2 || !p.Answerable {
		t.Fatalf("plan = %+v, want SP k=2 answerable", p)
	}
	if len(p.Keywords) != 2 {
		t.Fatalf("plan keywords = %+v, want the 2 resolved terms", p.Keywords)
	}
	for _, kw := range p.Keywords {
		if kw.DocFrequency < 1 {
			t.Errorf("keyword %q has no document frequency", kw.Term)
		}
	}
	if got.Explain.Profile.Results != 2 || got.Explain.Profile.DurationMicros < 0 {
		t.Fatalf("profile = %+v, want 2 results", got.Explain.Profile)
	}
	if len(got.Explain.Shards) != 0 {
		t.Errorf("single-engine explain grew a shard table: %+v", got.Explain.Shards)
	}

	var plain SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &plain)
	if plain.Explain != nil {
		t.Error("explain report attached without ?explain")
	}
}

// ?trace=perfetto returns the capture in Chrome trace_event form in
// place of the span tree.
func TestTracePerfettoParam(t *testing.T) {
	srv := testServer(t)
	var got SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2&trace=perfetto", &got)
	if got.Trace != nil {
		t.Error("perfetto mode also attached the span tree")
	}
	if got.Perfetto == nil {
		t.Fatal("?trace=perfetto returned no trace_event document")
	}
	if got.Perfetto.DisplayTimeUnit != "ms" || len(got.Perfetto.TraceEvents) == 0 {
		t.Fatalf("perfetto doc = unit %q, %d events", got.Perfetto.DisplayTimeUnit, len(got.Perfetto.TraceEvents))
	}
	for _, ev := range got.Perfetto.TraceEvents {
		if ev.Phase != "X" {
			t.Fatalf("event %q has ph %q, want X", ev.Name, ev.Phase)
		}
	}
}

// The slow-query log retains a wide event per query and serves it at
// /debug/slow; /stats gains the summary section.
func TestDebugSlowEndpoint(t *testing.T) {
	s := New(fixtureDS(t))
	s.EnableSlowLog(8, 0) // zero threshold: every query is retained
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2&algo=SPP", nil)
	var slow DebugSlowResponse
	getJSON(t, srv.URL+"/debug/slow", &slow)
	if slow.ObservedTotal != 1 || slow.SlowTotal != 1 || len(slow.Queries) != 1 {
		t.Fatalf("slow log = %d observed / %d slow / %d retained, want 1/1/1",
			slow.ObservedTotal, slow.SlowTotal, len(slow.Queries))
	}
	ev := slow.Queries[0]
	if ev.Endpoint != "/search" || ev.Algo != "SPP" || ev.K != 2 || ev.Status != http.StatusOK {
		t.Fatalf("wide event = %+v, want /search SPP k=2 200", ev)
	}
	if ev.Results != 2 || ev.Keywords == "" || ev.RequestID == "" {
		t.Fatalf("wide event incomplete: %+v", ev)
	}
	if ev.PlacesRetrieved < 1 {
		t.Errorf("wide event carries no execution profile: %+v", ev)
	}

	var stats StatsResponse
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Slow == nil || stats.Slow.Observed != 1 {
		t.Fatalf("stats slow section = %+v, want observed=1", stats.Slow)
	}
}

// Without EnableSlowLog the endpoint 404s and queries pay nothing.
func TestDebugSlowDisabled(t *testing.T) {
	srv := testServer(t)
	resp := getJSON(t, srv.URL+"/debug/slow", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/slow on a plain server = %d, want 404", resp.StatusCode)
	}
}

// remoteShards serves each spatial tile through a real HTTP peer and
// wraps it in a Remote shard — the wire path traces must cross.
func remoteShards(t *testing.T, ds *ksp.Dataset, n int) []shard.Shard {
	t.Helper()
	tiles, err := ds.PartitionSpatial(n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]shard.Shard, len(tiles))
	for i, tile := range tiles {
		peer := httptest.NewServer(New(tile))
		t.Cleanup(peer.Close)
		out[i] = shard.NewRemote(fmt.Sprintf("remote%d", i), peer.URL, peer.Client())
	}
	return out
}

// A traced sharded query must come back as ONE stitched tree: each
// winning shard.attempt carries the peer's span subtree (its /search
// root, with the engine's prepare phase inside), rebased onto the
// coordinator clock and correlated by the propagated trace ID.
func TestShardedTraceStitched(t *testing.T) {
	ds := fixtureDS(t)
	front, _ := shardedServer(t, ds, quietShardCfg(), remoteShards(t, ds, 2)...)

	var got SearchResponse
	getJSON(t, front.URL+"/search?x=0&y=0&kw=roman,history&k=2&trace=1", &got)
	if got.Trace == nil {
		t.Fatal("?trace=1 returned no trace")
	}
	if got.Trace.TraceID == "" {
		t.Fatal("stitched root carries no trace ID")
	}
	if len(findTreeSpans(got.Trace, "shard.gather")) != 1 {
		t.Fatal("trace lacks the shard.gather span")
	}
	calls := findTreeSpans(got.Trace, "shard.call")
	if len(calls) != 2 {
		t.Fatalf("shard.call spans = %d, want one per shard", len(calls))
	}
	// The front server's own root span is also named "/search" (traces
	// are named by URL path), so count grafts under the call spans.
	var grafts []*obs.SpanJSON
	for _, call := range calls {
		grafts = append(grafts, findTreeSpans(call, "/search")...)
	}
	if len(grafts) != 2 {
		t.Fatalf("grafted peer subtrees = %d, want one per shard", len(grafts))
	}
	for _, g := range grafts {
		if g.TraceID != got.Trace.TraceID {
			t.Errorf("peer subtree trace ID %q != propagated %q — traceparent join failed",
				g.TraceID, got.Trace.TraceID)
		}
		if _, ok := treeAttr(g, "clockRebasedMicros"); !ok {
			t.Error("peer subtree not clock-rebased")
		}
		if len(findTreeSpans(g, "prepare")) != 1 {
			t.Error("peer subtree lost the engine's prepare span")
		}
	}
	for _, call := range calls {
		won := 0
		for _, a := range findTreeSpans(call, "shard.attempt") {
			if v, ok := treeAttr(a, "won"); ok && v == "true" {
				won++
			}
		}
		if won != 1 {
			name, _ := treeAttr(call, "shard")
			t.Errorf("shard %s: %d winning attempts, want 1", name, won)
		}
	}
}

// Tracing must be a pure observer: the results bytes of a query are
// bit-for-bit identical with trace off, trace on, and perfetto mode,
// across single-engine and sharded serving at every shard count.
func TestTraceNeverChangesResults(t *testing.T) {
	ds := fixtureDS(t)
	type rawResults struct {
		Results json.RawMessage `json:"results"`
	}
	fetch := func(url string) string {
		var rr rawResults
		getJSON(t, url, &rr)
		return string(rr.Results)
	}
	const q = "/search?x=0&y=0&kw=roman,history&k=2"

	single := testServer(t)
	want := fetch(single.URL + q)
	if want == "" || want == "null" {
		t.Fatalf("baseline results empty: %q", want)
	}

	urls := map[string]string{"single": single.URL}
	for _, n := range []int{1, 2, 4} {
		front, _ := shardedServer(t, ds, quietShardCfg(), localShards(t, ds, n)...)
		urls[fmt.Sprintf("shards=%d", n)] = front.URL
	}
	for name, base := range urls {
		for _, suffix := range []string{"", "&trace=1", "&trace=perfetto", "&explain=1"} {
			if got := fetch(base + q + suffix); got != want {
				t.Errorf("%s%s: results diverge\n got: %s\nwant: %s", name, suffix, got, want)
			}
		}
	}
}

// The disabled wide-event path — a server with no slow log — must not
// allocate per query (CI's bench-guard gate).
func TestDisabledDiagnosticsZeroAlloc(t *testing.T) {
	s := New(fixtureDS(t))
	rec := obs.QueryRecord{Endpoint: "/search", Algo: "SP", K: 2, Status: 200}
	n := testing.AllocsPerRun(1000, func() {
		s.noteWide(rec, "", 0, nil, 0, "", nil)
	})
	if n != 0 {
		t.Fatalf("noteWide with slow log disabled allocates %v allocs/op, want 0", n)
	}
}

// Under the slow-log threshold a query is counted as observed and its
// wide event is never built: /stats counts every query, /debug/slow keeps
// none, and the fast path allocates nothing.
func TestSlowLogCountsFastQueries(t *testing.T) {
	s := New(fixtureDS(t))
	s.EnableSlowLog(8, time.Hour)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	for i := 0; i < 3; i++ {
		getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", nil)
	}
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=nosuchword&k=2", nil)
	var slow DebugSlowResponse
	getJSON(t, srv.URL+"/debug/slow", &slow)
	if slow.ObservedTotal != 4 || slow.SlowTotal != 0 || len(slow.Queries) != 0 {
		t.Fatalf("slow log = %d observed / %d slow / %d retained, want 4/0/0",
			slow.ObservedTotal, slow.SlowTotal, len(slow.Queries))
	}
	rec := obs.QueryRecord{Endpoint: "/search", Algo: "SP", K: 2, Status: 200, DurationMicros: 150}
	if n := testing.AllocsPerRun(1000, func() {
		s.noteWide(rec, "", 0, &ksp.Stats{}, 2, "", nil)
	}); n != 0 {
		t.Fatalf("noteWide under the threshold allocates %v allocs/op, want 0", n)
	}
}
