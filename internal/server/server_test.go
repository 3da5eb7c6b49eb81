package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"ksp"
	"ksp/internal/shard"
)

const fixtureNT = `
<ex:Abbey> <ex:label> "ancient roman abbey" .
<ex:Abbey> <ex:hasGeometry> "POINT(1 1)"^^<http://www.opengis.net/ont/geosparql#wktLiteral> .
<ex:Abbey> <ex:near> <ex:Church> .
<ex:Church> <ex:label> "catholic church history" .
<ex:Fort> <ex:label> "roman fort history" .
<ex:Fort> <ex:hasGeometry> "POINT(5 5)"^^<http://www.opengis.net/ont/geosparql#wktLiteral> .
`

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(New(ds))
	t.Cleanup(srv.Close)
	return srv
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func TestSearchEndpoint(t *testing.T) {
	srv := testServer(t)
	var got SearchResponse
	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Results) != 2 {
		t.Fatalf("results = %+v", got.Results)
	}
	if got.Results[0].URI != "ex:Abbey" {
		t.Errorf("top-1 = %s, want ex:Abbey (closer, covers via church)", got.Results[0].URI)
	}
	if got.Stats.Algorithm != "SP" {
		t.Errorf("default algorithm = %s", got.Stats.Algorithm)
	}
	if got.Results[0].X != 1 || got.Results[0].Y != 1 {
		t.Errorf("location missing: %+v", got.Results[0])
	}
}

func TestSearchWithTreesAndAlgo(t *testing.T) {
	srv := testServer(t)
	var got SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=1&algo=BSP&trees=1", &got)
	if got.Stats.Algorithm != "BSP" {
		t.Errorf("algorithm = %s", got.Stats.Algorithm)
	}
	if len(got.Results) != 1 || len(got.Results[0].Tree) == 0 {
		t.Fatalf("expected a tree: %+v", got.Results)
	}
	foundChurch := false
	for _, n := range got.Results[0].Tree {
		if n.URI == "ex:Church" && n.Depth == 1 {
			foundChurch = true
		}
	}
	if !foundChurch {
		t.Errorf("tree missing ex:Church at depth 1: %+v", got.Results[0].Tree)
	}
}

func TestSearchValidation(t *testing.T) {
	srv := testServer(t)
	cases := []string{
		"/search?x=abc&y=0&kw=roman",        // bad x
		"/search?x=0&y=0",                   // missing kw
		"/search?x=0&y=0&kw=roman&k=0",      // bad k
		"/search?x=0&y=0&kw=roman&k=-2",     // negative k
		"/search?x=0&y=0&kw=roman&algo=XXX", // bad algo
	}
	for _, c := range cases {
		resp := getJSON(t, srv.URL+c, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", c, resp.StatusCode)
		}
	}
	// POST rejected.
	resp, err := http.Post(srv.URL+"/search", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status %d, want 405", resp.StatusCode)
	}
}

func TestKCapped(t *testing.T) {
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds)
	s.MaxK = 1
	srv := httptest.NewServer(s)
	defer srv.Close()
	var got SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=50", &got)
	if len(got.Results) > 1 {
		t.Errorf("MaxK not enforced: %d results", len(got.Results))
	}
}

func TestDescribeEndpoint(t *testing.T) {
	srv := testServer(t)
	var got DescribeResponse
	resp := getJSON(t, srv.URL+"/describe?uri=ex:Abbey", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !got.IsPlace || got.X != 1 {
		t.Errorf("describe = %+v", got)
	}
	hasRoman := false
	for _, term := range got.Terms {
		if term == "roman" {
			hasRoman = true
		}
	}
	if !hasRoman {
		t.Errorf("terms missing 'roman': %v", got.Terms)
	}

	if resp := getJSON(t, srv.URL+"/describe?uri=ex:Nope", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown uri status %d, want 404", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/describe", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing uri status %d, want 400", resp.StatusCode)
	}
}

func TestKeywordEndpoint(t *testing.T) {
	srv := testServer(t)
	var got SearchResponse
	resp := getJSON(t, srv.URL+"/keyword?kw=roman,history&k=5", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Results) != 2 {
		t.Fatalf("results = %+v", got.Results)
	}
	// Location plays no role: the tightest tree wins. Fort holds both
	// keywords itself (L=1); Abbey needs the church (L=2).
	if got.Results[0].URI != "ex:Fort" || got.Results[0].Looseness != 1 {
		t.Errorf("top-1 = %+v, want ex:Fort at L=1", got.Results[0])
	}
	if resp := getJSON(t, srv.URL+"/keyword", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("missing kw: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/keyword?kw=roman&k=-1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad k: status %d", resp.StatusCode)
	}
}

func TestNearestEndpoint(t *testing.T) {
	srv := testServer(t)
	var got SearchResponse
	resp := getJSON(t, srv.URL+"/nearest?x=0&y=0&n=2", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(got.Results) != 2 || got.Results[0].URI != "ex:Abbey" {
		t.Fatalf("results = %+v", got.Results)
	}
	if got.Results[0].Distance > got.Results[1].Distance {
		t.Error("not distance-ordered")
	}
	if resp := getJSON(t, srv.URL+"/nearest?x=zz&y=0", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad x: status %d", resp.StatusCode)
	}
	if resp := getJSON(t, srv.URL+"/nearest?x=0&y=0&n=zero", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad n: status %d", resp.StatusCode)
	}
}

func TestStatsAndHealth(t *testing.T) {
	srv := testServer(t)
	var st StatsResponse
	getJSON(t, srv.URL+"/stats", &st)
	if st.Dataset.Places != 2 || st.Dataset.Vertices == 0 {
		t.Errorf("stats = %+v", st.Dataset)
	}
	if st.Runtime.Goroutines == 0 || st.Runtime.GOMAXPROCS == 0 {
		t.Errorf("runtime section not populated: %+v", st.Runtime)
	}
	if !st.Server.Ready {
		t.Errorf("server section: ready = false on a serving instance")
	}
	if len(st.Metrics) == 0 {
		t.Error("metrics snapshot missing from /stats")
	}
	resp := getJSON(t, srv.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("health status %d", resp.StatusCode)
	}
}

// Mutating methods must be rejected on every read-only endpoint.
func TestGetOnlyEndpoints(t *testing.T) {
	srv := testServer(t)
	for _, path := range []string{
		"/search?x=0&y=0&kw=roman",
		"/keyword?kw=roman",
		"/nearest?x=0&y=0",
		"/describe?uri=ex:Abbey",
	} {
		resp, err := http.Post(srv.URL+path, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

// ?parallel= selected a pipeline width that no longer exists. Peers
// built before its removal still send it, so it is ignored like any
// unknown parameter: absent, numeric or malformed, the answer is the
// same 200 with the same results.
func TestLegacyParallelParamIgnored(t *testing.T) {
	srv := testServer(t)
	var want []shard.Result
	for i, param := range []string{"", "&parallel=4", "&parallel=bogus"} {
		var got SearchResponse
		resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2"+param, &got)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%q: status %d, want 200", param, resp.StatusCode)
		}
		if len(got.Results) == 0 {
			t.Fatalf("%q: no results", param)
		}
		if i == 0 {
			want = got.Results
			continue
		}
		if !reflect.DeepEqual(got.Results, want) {
			t.Errorf("%q: results %+v, want %+v", param, got.Results, want)
		}
	}
}
