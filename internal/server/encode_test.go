package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"ksp"
	"ksp/internal/obs"
	"ksp/internal/shard"
)

// brokenWriter models a client that disconnected mid-response: every
// body write fails.
type brokenWriter struct {
	h http.Header
}

func (w *brokenWriter) Header() http.Header {
	if w.h == nil {
		w.h = make(http.Header)
	}
	return w.h
}
func (w *brokenWriter) WriteHeader(int) {}
func (w *brokenWriter) Write([]byte) (int, error) {
	return 0, errors.New("client gone")
}

// TestEncodeFailureIsLoggedNotPanicked pins the fix for writeJSON and
// fail dropping encode errors: a dead client must produce a debug log
// line, not a silent drop and not a panic.
func TestEncodeFailureIsLoggedNotPanicked(t *testing.T) {
	var buf bytes.Buffer
	s := &Server{Logger: slog.New(slog.NewTextHandler(&buf,
		&slog.HandlerOptions{Level: slog.LevelDebug}))}

	s.writeJSON(&brokenWriter{}, map[string]int{"k": 5})
	if !bytes.Contains(buf.Bytes(), []byte("response encode failed")) {
		t.Errorf("writeJSON did not log the encode failure: %q", buf.String())
	}

	buf.Reset()
	s.fail(&brokenWriter{}, http.StatusBadRequest, "bad %s", "k")
	if !bytes.Contains(buf.Bytes(), []byte("error response encode failed")) {
		t.Errorf("fail did not log the encode failure: %q", buf.String())
	}
}

// encodingJSON is what json.NewEncoder(w).Encode writes for v, or nil
// when it fails.
func encodingJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return nil
	}
	return buf.Bytes()
}

// hostileStrings are URIs and algorithm names that exercise every escape
// encoding/json applies.
var hostileStrings = []string{
	"",
	"http://example.org/resource/Abbey",
	"<script>alert('x')</script> & co",
	"quote \" backslash \\ slash /",
	"ctl \x00\x01\x07\b\f\n\r\t\x1b\x1f del \x7f",
	"line\u2028para\u2029end",
	"bad utf8 \xff\xfe and cut \xe2\x80",
	"surrogate \xed\xa0\x80 overlong \xc0\xaf",
	"café naïve 東京 🚀",
	"\u00e9\u2027\u202a",
}

// extremeFloats cover encoding/json's switch to 'e' notation below 1e-6
// and from 1e21 on, its exponent trimming, and signed zero.
var extremeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5, 123.456,
	1e-6, 9.999999e-7, 1e-7, 1.234e-9, 5e-324, -2.5e-10,
	1e20, 9.99999e20, 1e21, 1.5e21, math.MaxFloat64, -1e300, 1e-300,
	0.30000000000000004, 1 / 3.0, 2.0 / 3.0 * 1e-8,
}

// TestSearchResponseMatchesEncodingJSON holds the appending encoder to
// encoding/json byte for byte: a table of hand-picked responses and
// randomized ones with hostile URIs, extreme floats, partial and
// cancelled flags, at k = 0, 1 and 100. Responses the appender
// leaves to encoding/json — trees, trace, explain, shards, non-finite
// floats — must still come out as encoding/json writes them through
// writeSearch.
func TestSearchResponseMatchesEncodingJSON(t *testing.T) {
	fast := 0
	check := func(label string, resp *SearchResponse) {
		t.Helper()
		want := encodingJSON(t, resp)
		got, ok := appendSearchResponse(nil, resp)
		if ok {
			fast++
		}
		if want == nil {
			if ok {
				t.Fatalf("%s: appended %s where encoding/json fails", label, got)
			}
			return
		}
		if ok && !bytes.Equal(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", label, got, want)
		}
		// Through the response writer, fallback or not.
		rec := httptest.NewRecorder()
		(&Server{}).writeSearch(rec, resp)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: writeSearch wrote\n%s\nwant %s", label, rec.Body.Bytes(), want)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s: Content-Type %q", label, ct)
		}
	}

	table := []struct {
		name string
		resp SearchResponse
	}{
		{"nil results", SearchResponse{}},
		{"empty results", SearchResponse{Results: []shard.Result{}, Stats: QueryStats{Algorithm: "SP"}}},
		{"one result", SearchResponse{
			Results: []shard.Result{{Place: 7, URI: "ex:Abbey", Score: 2.5, Looseness: 2, Distance: 1.25, X: 1, Y: -1, Exact: true}},
			Stats:   QueryStats{Algorithm: "SP", Millis: 1, Micros: 1234, TQSPComputations: 3, RTreeNodeAccesses: 9},
		}},
		{"partial", SearchResponse{
			Results: []shard.Result{{Place: 1, URI: "a"}}, Partial: true, ScoreLowerBound: 3.75,
			Stats: QueryStats{Algorithm: "SPP", TimedOut: true, Cancelled: true},
		}},
		{"negative zero bound", SearchResponse{Results: []shard.Result{}, ScoreLowerBound: math.Copysign(0, -1)}},
		{"degraded", SearchResponse{Results: []shard.Result{}, Degraded: true}},
		{"empty shards", SearchResponse{Results: []shard.Result{}, Shards: []shard.Status{}}},
		{"empty tree", SearchResponse{Results: []shard.Result{{URI: "t", Tree: []shard.TreeNode{}}}}},
		{"hostile algorithm", SearchResponse{Stats: QueryStats{Algorithm: "<&>\u2028\xff"}}},
		// Left to encoding/json.
		{"tree", SearchResponse{Results: []shard.Result{{URI: "t", Tree: []shard.TreeNode{{URI: "t", Parent: "t", Depth: 0, Keywords: 2}}}}}},
		{"shards", SearchResponse{Results: []shard.Result{}, Shards: []shard.Status{{Shard: "s0", State: "ok"}}}},
		{"trace", SearchResponse{Trace: &obs.SpanJSON{Name: "search"}}},
		{"perfetto", SearchResponse{Perfetto: &obs.PerfettoTrace{}}},
		{"explain", SearchResponse{Explain: &ksp.ExplainReport{}}},
		{"NaN score", SearchResponse{Results: []shard.Result{{Score: math.NaN()}}}},
		{"infinite y", SearchResponse{Results: []shard.Result{{Y: math.Inf(-1)}}}},
		{"infinite bound", SearchResponse{Partial: true, ScoreLowerBound: math.Inf(1)}},
	}
	for _, tc := range table {
		check(tc.name, &tc.resp)
	}
	for _, s := range hostileStrings {
		check("uri "+s, &SearchResponse{Results: []shard.Result{{URI: s}}})
	}
	for _, f := range extremeFloats {
		for _, v := range []float64{f, -f} {
			check(fmt.Sprint("float ", v), &SearchResponse{Results: []shard.Result{{Score: v, Looseness: v, Distance: v, X: v, Y: v}}, ScoreLowerBound: v})
		}
	}

	rng := rand.New(rand.NewSource(45))
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return extremeFloats[rng.Intn(len(extremeFloats))]
		case 1:
			return math.Float64frombits(rng.Uint64()) // may be non-finite
		case 2:
			return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		return float64(rng.Intn(1000)) / 8
	}
	counter := func() int64 {
		if rng.Intn(2) == 0 {
			return 0
		}
		return rng.Int63n(1 << 40)
	}
	for trial := 0; trial < 3000; trial++ {
		k := []int{0, 1, 100}[trial%3]
		resp := SearchResponse{
			Results:  make([]shard.Result, 0, k),
			Partial:  rng.Intn(2) == 0,
			Degraded: rng.Intn(8) == 0,
			Stats: QueryStats{
				Algorithm: []string{"SP", "SPP", "BSP", "TA", "keyword", "nearest"}[rng.Intn(6)],
				Millis:    counter(), Micros: counter(),
				TQSPComputations: counter(), RTreeNodeAccesses: counter(),
				TimedOut: rng.Intn(2) == 0, Cancelled: rng.Intn(2) == 0,
			},
		}
		if resp.Partial {
			resp.ScoreLowerBound = float()
		}
		for i := 0; i < k; i++ {
			uri := hostileStrings[rng.Intn(len(hostileStrings))]
			if rng.Intn(2) == 0 {
				b := make([]byte, rng.Intn(24))
				rng.Read(b)
				uri = string(b)
			}
			resp.Results = append(resp.Results, shard.Result{
				Place: rng.Uint32(), URI: uri,
				Score: float(), Looseness: float(), Distance: float(), X: float(), Y: float(),
				Exact: rng.Intn(2) == 0,
			})
		}
		check(fmt.Sprintf("trial %d", trial), &resp)
	}
	// Most random responses are finite and tree-free: the appender, not
	// the fallback, must have written them.
	if fast < 2500 {
		t.Fatalf("the appender encoded only %d responses", fast)
	}
}
