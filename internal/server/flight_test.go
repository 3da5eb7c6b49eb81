package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"ksp"
	"ksp/internal/core"
	"ksp/internal/faultinject"
)

// flightKey must be insensitive to keyword order and spacing, and
// sensitive to every knob that changes what the engine computes.
func TestFlightKeyNormalization(t *testing.T) {
	base := flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman", "history"}, 5, false, 0)
	same := []string{
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"history", "roman"}, 5, false, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{" roman ", "", "history"}, 5, false, 0),
	}
	for i, k := range same {
		if k != base {
			t.Errorf("variant %d got a different key:\n%q\n%q", i, k, base)
		}
	}
	diff := []string{
		flightKey(ksp.AlgoBSP, 1.25, -3.5, []string{"roman", "history"}, 5, false, 0),
		flightKey(ksp.AlgoSP, 1.26, -3.5, []string{"roman", "history"}, 5, false, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman"}, 5, false, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman", "history"}, 6, false, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman", "history"}, 5, true, 0),
		flightKey(ksp.AlgoSP, 1.25, -3.5, []string{"roman", "history"}, 5, false, 2.5),
	}
	for i, k := range diff {
		if k == base {
			t.Errorf("variant %d should not share the base key %q", i, k)
		}
	}
}

// Concurrent identical searches must collapse onto one evaluation: stall
// the first request inside the engine, fire identical followers while it
// holds the flight, and check everyone gets the same answer while the
// shared-flight counter records the coalesced requests.
func TestSingleflightCoalesces(t *testing.T) {
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds)
	srv := httptest.NewServer(s)
	defer srv.Close()

	plan := faultinject.NewPlan(17).Add(faultinject.Fault{
		Point: core.PointPrepare, Action: faultinject.Stall,
		StallFor: 150 * time.Millisecond, Times: 1,
	})
	faultinject.Activate(plan)
	defer faultinject.Deactivate()

	const url = "/search?x=0&y=0&kw=roman,history&k=2"
	const followers = 3
	responses := make([]SearchResponse, 1+followers)
	var wg sync.WaitGroup
	wg.Add(1 + followers)
	go func() {
		defer wg.Done()
		getJSON(t, srv.URL+url, &responses[0])
	}()
	time.Sleep(50 * time.Millisecond) // leader is now stalled mid-evaluation
	for i := 1; i <= followers; i++ {
		i := i
		go func() {
			defer wg.Done()
			// Keyword order differs; the normalized key must not.
			getJSON(t, srv.URL+"/search?x=0&y=0&kw=history,roman&k=2", &responses[i])
		}()
	}
	wg.Wait()

	for i := 1; i < len(responses); i++ {
		if !reflect.DeepEqual(responses[i].Results, responses[0].Results) {
			t.Fatalf("response %d diverged from the leader's:\n%+v\n%+v",
				i, responses[i].Results, responses[0].Results)
		}
	}
	if got := s.sharedFlights.Load(); got != followers {
		t.Errorf("sharedFlights = %d, want %d", got, followers)
	}

	var stats StatsResponse
	getJSON(t, srv.URL+"/stats", &stats)
	if stats.Server.SharedFlights != followers {
		t.Errorf("/stats sharedFlights = %d, want %d", stats.Server.SharedFlights, followers)
	}
}

// Requests that differ after normalization must not coalesce.
func TestSingleflightDistinctQueries(t *testing.T) {
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds)
	srv := httptest.NewServer(s)
	defer srv.Close()

	var a, b SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &a)
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=1", &b)
	if s.sharedFlights.Load() != 0 {
		t.Errorf("sequential distinct queries coalesced: sharedFlights = %d", s.sharedFlights.Load())
	}
	if len(a.Results) == 0 || len(b.Results) == 0 {
		t.Fatalf("queries returned nothing: %d, %d results", len(a.Results), len(b.Results))
	}
}

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
	results := func(raw string) []SearchResult {
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

// flightKeyFmt is flightKey as it was written with fmt, the reference for
// the strconv version.
func flightKeyFmt(algo ksp.Algorithm, x, y float64, kws []string, k int, trees bool, maxDist float64) string {
	sorted := make([]string, 0, len(kws))
	for _, kw := range kws {
		if kw = strings.TrimSpace(kw); kw != "" {
			sorted = append(sorted, kw)
		}
	}
	sort.Strings(sorted)
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%.6f|%.6f|k=%d|t=%t|d=%g",
		algo.String(), x, y, k, trees, maxDist)
	for _, kw := range sorted {
		b.WriteByte('\x00')
		b.WriteString(kw)
	}
	return b.String()
}

func TestFlightKeyMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	floats := []float64{0, math.Copysign(0, -1), 1.25, -3.5, 1e-7, 4.9999995e-7, 123456.7890125, -1e21, 2.5, 1e300}
	pick := func() float64 {
		if rng.Intn(2) == 0 {
			return floats[rng.Intn(len(floats))]
		}
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(20)-8))
	}
	for i := 0; i < 5000; i++ {
		algo := ksp.Algorithm(rng.Intn(4))
		kws := []string{"roman", " history ", "", "abbey"}[:rng.Intn(5)]
		x, y, maxDist := pick(), pick(), math.Abs(pick())
		k, trees := rng.Intn(200), rng.Intn(2) == 0
		if got, want := flightKey(algo, x, y, kws, k, trees, maxDist),
			flightKeyFmt(algo, x, y, kws, k, trees, maxDist); got != want {
			t.Fatalf("flightKey = %q, fmt gives %q", got, want)
		}
	}
}

// flightCount reports how many flights are registered.
func flightCount(s *Server) int {
	s.flights.mu.Lock()
	defer s.flights.mu.Unlock()
	return len(s.flights.m)
}

// onlyFlight returns the one registered flight and its waiter count.
func onlyFlight(t *testing.T, s *Server) (*flight, int) {
	t.Helper()
	s.flights.mu.Lock()
	defer s.flights.mu.Unlock()
	if len(s.flights.m) != 1 {
		t.Fatalf("%d flights registered, want 1", len(s.flights.m))
	}
	for _, f := range s.flights.m {
		return f, f.waiters
	}
	return nil, 0
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

// TestFlightLifecycle pins how a leader leaves its flight now that no
// goroutine watches its request: a leader whose client disconnects
// mid-evaluation cancels a flight nobody else waits on, and a flight with
// a follower keeps evaluating for it. The flight map is empty afterwards
// on both paths, and a request in flight costs no goroutine of its own.
func TestFlightLifecycle(t *testing.T) {
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds)
	const url = "/search?x=0&y=0&kw=roman,history&k=2"
	base := runtime.NumGoroutine()

	// serve runs one request on its own goroutine; the returned channel
	// yields the recorder once it is answered.
	serve := func(ctx context.Context) <-chan *httptest.ResponseRecorder {
		done := make(chan *httptest.ResponseRecorder, 1)
		req := httptest.NewRequest(http.MethodGet, url, nil).WithContext(ctx)
		go func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			done <- rec
		}()
		return done
	}
	// gate holds the leader inside the engine until it is closed.
	hold := func() chan struct{} {
		gate := make(chan struct{})
		faultinject.Activate(faultinject.NewPlan(45).Add(faultinject.Fault{
			Point: core.PointPrepare, Action: faultinject.Call, Times: 1,
			Func: func() { <-gate },
		}))
		return gate
	}
	defer faultinject.Deactivate()

	t.Run("no followers", func(t *testing.T) {
		base := runtime.NumGoroutine() // the subtest's own goroutine included
		gate := hold()
		ctx, cancel := context.WithCancel(context.Background())
		done := serve(ctx)
		waitFor(t, "the leader's flight", func() bool { return flightCount(s) == 1 })
		f, waiters := onlyFlight(t, s)
		if waiters != 1 {
			t.Fatalf("leader alone holds %d waiter slots", waiters)
		}
		if n := runtime.NumGoroutine() - base; n > 1 {
			t.Errorf("one request in flight runs %d goroutines", n)
		}
		cancel()
		// Still inside the engine: the disconnect alone must cancel the
		// flight and retire it.
		waitFor(t, "the flight to cancel", func() bool {
			select {
			case <-f.cancel:
				return true
			default:
				return false
			}
		})
		if n := flightCount(s); n != 0 {
			t.Fatalf("%d flights registered after the only client left", n)
		}
		close(gate)
		<-done
		if got := s.ring.Snapshot()[0].Status; got != 499 {
			t.Fatalf("the disconnected leader's query logged status %d, want 499", got)
		}
	})

	t.Run("follower keeps it", func(t *testing.T) {
		base := runtime.NumGoroutine()
		gate := hold()
		ctx, cancel := context.WithCancel(context.Background())
		leader := serve(ctx)
		waitFor(t, "the leader's flight", func() bool { return flightCount(s) == 1 })
		follower := serve(context.Background())
		waitFor(t, "the follower to join", func() bool { _, w := onlyFlight(t, s); return w == 2 })
		f, _ := onlyFlight(t, s)
		if n := runtime.NumGoroutine() - base; n > 2 {
			t.Errorf("two requests in flight run %d goroutines", n)
		}
		cancel()
		waitFor(t, "the leader to leave", func() bool { _, w := onlyFlight(t, s); return w == 1 })
		select {
		case <-f.cancel:
			t.Fatal("the flight cancelled although a follower still waits")
		default:
		}
		close(gate)
		<-leader
		rec := <-follower
		var resp SearchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("follower got status %d, %v: %s", rec.Code, err, rec.Body.Bytes())
		}
		if resp.Partial || len(resp.Results) == 0 {
			t.Fatalf("follower got a partial or empty answer: %+v", resp)
		}
		if n := flightCount(s); n != 0 {
			t.Fatalf("%d flights registered after both requests finished", n)
		}
	})

	t.Run("finished", func(t *testing.T) {
		faultinject.Deactivate()
		rec := <-serve(context.Background())
		if rec.Code != http.StatusOK || flightCount(s) != 0 {
			t.Fatalf("status %d, %d flights left registered", rec.Code, flightCount(s))
		}
	})

	waitFor(t, "the request goroutines to exit", func() bool { return runtime.NumGoroutine() <= base })
}
