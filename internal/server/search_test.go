package server

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"ksp"
	"ksp/internal/core"
	"ksp/internal/faultinject"
	"ksp/internal/shard"
)

// The ?window= parameter is gone: a request that still carries it is
// served as if it did not, and neither the response nor /stats names a
// window.
func TestSearchWindowParam(t *testing.T) {
	srv := testServer(t)
	body := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	results := func(raw string) []shard.Result {
		t.Helper()
		var r SearchResponse
		if err := json.Unmarshal([]byte(raw), &r); err != nil {
			t.Fatal(err)
		}
		return r.Results
	}
	plain := body("/search?x=0&y=0&kw=roman,history&k=2")
	for _, win := range []string{"7", "1", "-2", "abc"} {
		got := body("/search?x=0&y=0&kw=roman,history&k=2&window=" + win)
		if !reflect.DeepEqual(results(got), results(plain)) {
			t.Errorf("window=%s changed the results:\n%s\n%s", win, got, plain)
		}
		if strings.Contains(strings.ToLower(got), "window") {
			t.Errorf("window=%s: the response names a window: %s", win, got)
		}
	}
	if stats := body("/stats"); strings.Contains(strings.ToLower(stats), "window") {
		t.Errorf("/stats names a window: %s", stats)
	}
}

// serveAsync runs one request through s on its own goroutine; the
// returned channel yields the recorder once it is answered.
func serveAsync(ctx context.Context, s *Server, url string) <-chan *httptest.ResponseRecorder {
	done := make(chan *httptest.ResponseRecorder, 1)
	req := httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx)
	go func() {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		done <- rec
	}()
	return done
}

// holdPrepare holds the next query to reach the engine's prepare step
// until the returned gate is closed; entered yields once it is held.
func holdPrepare(seed int64) (gate chan struct{}, entered <-chan struct{}) {
	gate = make(chan struct{})
	in := make(chan struct{}, 1)
	faultinject.Activate(faultinject.NewPlan(seed).Add(faultinject.Fault{
		Point: core.PointPrepare, Action: faultinject.Call, Times: 1,
		Func: func() { in <- struct{}{}; <-gate },
	}))
	return gate, in
}

// waitFor polls cond until it holds, failing after two seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFlightLifecycle pins a request in flight: one held inside the
// engine runs no goroutine besides its own, and a client that
// disconnects mid-evaluation cancels it and is logged as 499.
func TestFlightLifecycle(t *testing.T) {
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds)
	const url = "/search?x=0&y=0&kw=roman,history&k=2"
	base := runtime.NumGoroutine()
	defer faultinject.Deactivate()

	t.Run("no followers", func(t *testing.T) {
		base := runtime.NumGoroutine() // the subtest's own goroutine included
		gate, entered := holdPrepare(45)
		ctx, cancel := context.WithCancel(context.Background())
		done := serveAsync(ctx, s, url)
		<-entered
		if n := runtime.NumGoroutine() - base; n > 1 {
			t.Errorf("one request in flight runs %d goroutines", n)
		}
		cancel()
		close(gate)
		<-done
		if got := s.ring.Snapshot()[0].Status; got != 499 {
			t.Fatalf("the disconnected client's query logged status %d, want 499", got)
		}
	})

	t.Run("finished", func(t *testing.T) {
		faultinject.Deactivate()
		if rec := <-serveAsync(context.Background(), s, url); rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})

	waitFor(t, "the request goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}

// Two concurrent queries that differ only in the seventh decimal of x
// are two queries: each answer carries the scores and distances of its
// own coordinates, bit for bit, and the second is answered while the
// first is still held inside the engine.
func TestConcurrentNearbyQueriesExact(t *testing.T) {
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds)
	xs := [2]float64{1.0000001, 1.0000004}
	url := func(x float64) string {
		return "/search?x=" + jsonFloat(x) + "&y=2&kw=roman,history&k=2"
	}
	var want [2][]ksp.Result
	for i, x := range xs {
		res, _, err := ds.SearchWith(ksp.AlgoSP,
			ksp.Query{Loc: ksp.Point{X: x, Y: 2}, Keywords: []string{"roman", "history"}, K: 2}, ksp.Options{})
		if err != nil || len(res) == 0 {
			t.Fatalf("x=%v: %v, %d results", x, err, len(res))
		}
		want[i] = res
	}
	if want[0][0].Score == want[1][0].Score {
		t.Fatalf("the two coordinates score alike (%v); the test shows nothing", want[0][0].Score)
	}

	defer faultinject.Deactivate()
	gate, entered := holdPrepare(53)
	first := serveAsync(context.Background(), s, url(xs[0]))
	<-entered
	second := serveAsync(context.Background(), s, url(xs[1]))
	var got [2]*httptest.ResponseRecorder
	select {
	case got[1] = <-second:
	case <-time.After(2 * time.Second):
		t.Error("the second query waited on the first, held one")
	}
	close(gate)
	got[0] = <-first
	if got[1] == nil {
		got[1] = <-second
	}

	for i, rec := range got {
		var resp SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("x=%v: status %d, %v: %s", xs[i], rec.Code, err, rec.Body.Bytes())
		}
		if len(resp.Results) != len(want[i]) {
			t.Fatalf("x=%v: %d results, want %d", xs[i], len(resp.Results), len(want[i]))
		}
		for j, r := range resp.Results {
			w := want[i][j]
			if r.Place != w.Place || math.Float64bits(r.Score) != math.Float64bits(w.Score) ||
				math.Float64bits(r.Distance) != math.Float64bits(w.Dist) {
				t.Errorf("x=%v result %d: place %d score %v distance %v, want place %d score %v distance %v",
					xs[i], j, r.Place, r.Score, r.Distance, w.Place, w.Score, w.Dist)
			}
		}
	}
}

// jsonFloat formats f as the shortest decimal that parses back to it.
func jsonFloat(f float64) string {
	b, _ := appendJSONFloat(nil, f)
	return string(b)
}

// TestSearchHandlerAllocs pins what one untraced /search costs the
// handler in allocations, served through ServeHTTP on the fixture: the
// budget is the steady state plus 5 (CI's bench-guard gate).
func TestSearchHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts; CI's bench-guard job runs this race-free")
	}
	const budget = 42 // steady state 37–38; 46 while a singleflight coalescer sat in front of the engine
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := New(fixtureDS(t))
	req := httptest.NewRequest(http.MethodGet, "/search?x=0&y=0&kw=roman,history&k=2", nil)
	rec := httptest.NewRecorder()
	serve := func() {
		rec.Body.Reset()
		s.ServeHTTP(rec, req)
	}
	serve() // warm pools and caches
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	n := testing.AllocsPerRun(200, serve)
	t.Logf("one untraced /search: %.1f allocs", n)
	if n > budget {
		t.Errorf("one untraced /search allocates %.1f objects, budget %d", n, budget)
	}
}
