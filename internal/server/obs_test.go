package server

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"ksp/internal/obs"
)

// Exposition-format grammar: comment lines and sample lines. The value
// must parse as a float (Prometheus accepts +Inf/NaN spellings too).
var (
	helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
	typeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)
)

// scrape fetches /metrics, validates every line against the exposition
// grammar, and returns the samples keyed by name+labels.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP") {
			if !helpRe.MatchString(line) {
				t.Errorf("malformed HELP line: %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE") {
			if !typeRe.MatchString(line) {
				t.Errorf("malformed TYPE line: %q", line)
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed sample line: %q", line)
			continue
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Errorf("unparseable value in %q: %v", line, err)
			continue
		}
		key := m[1] + m[2]
		if _, dup := out[key]; dup {
			t.Errorf("duplicate series %q", key)
		}
		out[key] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// Every /metrics line must be well-formed, the expected families must
// exist, and counters must be monotone across requests.
func TestMetricsEndpoint(t *testing.T) {
	srv := testServer(t)
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", nil)
	before := scrape(t, srv.URL)

	for _, want := range []string{
		`ksp_server_requests_total{path="/search"}`,
		`ksp_engine_queries_total{algo="SP"}`,
		`ksp_engine_tqsp_computations_total`,
		`ksp_engine_rtree_node_accesses_total`,
		`ksp_server_admission_capacity`,
		`ksp_runtime_goroutines`,
		`ksp_runtime_gomaxprocs`,
	} {
		if _, ok := before[want]; !ok {
			t.Errorf("series %s missing from /metrics", want)
		}
	}
	if before[`ksp_server_requests_total{path="/search"}`] != 1 {
		t.Errorf("requests_total{/search} = %v, want 1",
			before[`ksp_server_requests_total{path="/search"}`])
	}
	if before[`ksp_engine_queries_total{algo="SP"}`] != 1 {
		t.Errorf("engine queries_total{SP} = %v, want 1",
			before[`ksp_engine_queries_total{algo="SP"}`])
	}
	// The latency histogram must be cumulative and consistent (labels
	// render sorted by key, so le precedes path).
	lastBucket := `ksp_server_request_duration_seconds_bucket{le="+Inf",path="/search"}`
	count := `ksp_server_request_duration_seconds_count{path="/search"}`
	if before[lastBucket] != before[count] || before[count] != 1 {
		t.Errorf("histogram inconsistent: +Inf bucket %v, count %v",
			before[lastBucket], before[count])
	}

	for i := 0; i < 3; i++ {
		getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", nil)
	}
	after := scrape(t, srv.URL)
	for key, v := range before {
		if strings.Contains(key, "_total") || strings.HasSuffix(key, "_count") {
			if after[key] < v {
				t.Errorf("counter %s decreased: %v -> %v", key, v, after[key])
			}
		}
	}
	if got := after[`ksp_server_requests_total{path="/search"}`]; got != 4 {
		t.Errorf("requests_total{/search} = %v, want 4", got)
	}
}

// Unknown paths must collapse into the "other" label, not mint a new
// series per URL.
func TestMetricsPathCardinality(t *testing.T) {
	srv := testServer(t)
	for i := 0; i < 5; i++ {
		resp, err := http.Get(fmt.Sprintf("%s/no-such-endpoint-%d", srv.URL, i))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	samples := scrape(t, srv.URL)
	if got := samples[`ksp_server_requests_total{path="other"}`]; got != 5 {
		t.Errorf(`requests_total{path="other"} = %v, want 5`, got)
	}
	for key := range samples {
		if strings.Contains(key, "no-such-endpoint") {
			t.Errorf("client-controlled path leaked into series %q", key)
		}
	}
}

// ?trace=1 returns the evaluation's span tree; without it the field is
// absent.
func TestSearchTraceParam(t *testing.T) {
	srv := testServer(t)
	var plain SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=2", &plain)
	if plain.Trace != nil {
		t.Error("trace present without ?trace=1")
	}

	var traced SearchResponse
	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=2&trace=1", &traced)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if traced.Trace == nil {
		t.Fatal("no trace in response to ?trace=1")
	}
	if traced.Trace.Name != "/search" {
		t.Errorf("root span %q, want /search", traced.Trace.Name)
	}
	names := map[string]int{}
	var walk func(s *obs.SpanJSON)
	walk = func(s *obs.SpanJSON) {
		names[s.Name]++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(traced.Trace)
	if names["prepare"] != 1 {
		t.Errorf("prepare spans = %d, want 1", names["prepare"])
	}
	if names["candidate"] == 0 {
		t.Error("no candidate spans in trace")
	}
	// The same query's results must be identical with tracing on.
	if len(traced.Results) != len(plain.Results) {
		t.Errorf("tracing changed the result set: %d vs %d results",
			len(traced.Results), len(plain.Results))
	}
}

// Every algorithm must produce a span tree.
func TestTraceAllAlgorithms(t *testing.T) {
	srv := testServer(t)
	for _, algo := range []string{"BSP", "SPP", "SP", "TA"} {
		var got SearchResponse
		url := srv.URL + "/search?x=0&y=0&kw=roman&k=2&trace=1&algo=" + algo
		resp := getJSON(t, url, &got)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", algo, resp.StatusCode)
			continue
		}
		if got.Trace == nil {
			t.Errorf("%s: no trace", algo)
			continue
		}
		if len(got.Trace.Children) == 0 {
			t.Errorf("%s: empty span tree", algo)
		}
		algoAttr := ""
		for _, a := range got.Trace.Attrs {
			if a.Key == "algo" {
				algoAttr = a.Value
			}
		}
		if algoAttr != algo {
			t.Errorf("root algo attr %q, want %s", algoAttr, algo)
		}
	}
}

// /debug/queries keeps the most recent queries newest-first, carries
// the request ID (client-supplied or generated), and attaches the trace
// only when the client asked for one.
func TestDebugQueries(t *testing.T) {
	srv := testServer(t)

	req, _ := http.NewRequest(http.MethodGet, srv.URL+"/search?x=0&y=0&kw=roman&k=1", nil)
	req.Header.Set("X-Request-ID", "req-alpha")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "req-alpha" {
		t.Errorf("X-Request-ID echoed as %q", got)
	}

	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1&trace=1", nil)

	var dq DebugQueriesResponse
	getJSON(t, srv.URL+"/debug/queries", &dq)
	if len(dq.Queries) != 2 {
		t.Fatalf("recorded %d queries, want 2: %+v", len(dq.Queries), dq.Queries)
	}
	newest, oldest := dq.Queries[0], dq.Queries[1]
	if newest.Trace == nil {
		t.Error("newest record (traced query) lacks its trace")
	}
	if oldest.ID != "req-alpha" {
		t.Errorf("oldest record ID %q, want req-alpha", oldest.ID)
	}
	if oldest.Trace != nil {
		t.Error("untraced query carries a trace")
	}
	for _, rec := range dq.Queries {
		if rec.Endpoint != "/search" || rec.Status != http.StatusOK {
			t.Errorf("record %+v", rec)
		}
		if rec.Algo != "SP" || rec.Keywords != "roman" || rec.K != 1 {
			t.Errorf("record fields %+v", rec)
		}
		if rec.ID == "" || rec.Time.IsZero() {
			t.Errorf("record missing ID or timestamp: %+v", rec)
		}
	}
}

// Micros is the precise latency next to the compatibility Millis field.
func TestQueryStatsMicros(t *testing.T) {
	srv := testServer(t)
	var got SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &got)
	if got.Stats.Micros < got.Stats.Millis*1000 {
		t.Errorf("micros %d < millis %d × 1000", got.Stats.Micros, got.Stats.Millis)
	}
	if got.Stats.Micros > (got.Stats.Millis+1)*1000 {
		t.Errorf("micros %d disagrees with millis %d", got.Stats.Micros, got.Stats.Millis)
	}
}
