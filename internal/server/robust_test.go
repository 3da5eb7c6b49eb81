package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"ksp"
	"ksp/internal/core"
	"ksp/internal/faultinject"
	"ksp/internal/shard"
	"ksp/internal/store"
	"ksp/internal/testutil"
)

// TestMain enforces the no-goroutine-leak contract over the whole
// package; idle HTTP client connections are shut down first so they
// don't read as leaks.
func TestMain(m *testing.M) {
	os.Exit(testutil.VerifyMain(m, func() {
		if tr, ok := http.DefaultTransport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	}))
}

// This binary links every injection point the service ships; the
// registry must list exactly them — a missing one means a Fire call was
// dropped, an extra one means a point nothing exercises.
func TestInjectionPointRegistry(t *testing.T) {
	want := []string{
		core.PointPrepare,
		core.PointSerialCandidate,
		core.PointBFS,
		PointSearchAdmitted,
		shard.PointCall,
		shard.PointPing,
		shard.PointTruncate,
		store.PointSaveRename,
	}
	sort.Strings(want)
	got := faultinject.Points()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("registered points = %v, want %v", got, want)
	}
}

func newTestServer(t *testing.T, tune func(*Server)) *httptest.Server {
	t.Helper()
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds)
	if tune != nil {
		tune(s)
	}
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv
}

// occupyServer issues a /search that stalls at the post-admission
// injection point, holding the full admission capacity. It returns once
// /stats confirms the grant is held, and a wait func for the response.
func occupyServer(t *testing.T, srv *httptest.Server, stall time.Duration) (wait func() int) {
	t.Helper()
	plan := faultinject.NewPlan(7).Add(faultinject.Fault{
		Point: PointSearchAdmitted, Action: faultinject.Stall, StallFor: stall, Times: 1,
	})
	faultinject.Activate(plan)
	t.Cleanup(faultinject.Deactivate)
	codes := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL + "/search?x=0&y=0&kw=roman&k=1")
		if err != nil {
			codes <- -1
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var st StatsResponse
		getJSON(t, srv.URL+"/stats", &st)
		if st.Admission != nil && st.Admission.InUse >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("stalled request never acquired the semaphore")
		}
		time.Sleep(2 * time.Millisecond)
	}
	return func() int { return <-codes }
}

// With capacity 1 and no queue, a second request sheds immediately with
// 429 + Retry-After; the stalled-but-admitted request still succeeds.
func TestOverloadQueueFull(t *testing.T) {
	srv := newTestServer(t, func(s *Server) {
		s.AdmitCapacity = 1
		s.AdmitQueue = -1
		s.QueueTimeout = 50 * time.Millisecond
	})
	wait := occupyServer(t, srv, 300*time.Millisecond)

	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 missing Retry-After")
	}
	if code := wait(); code != http.StatusOK {
		t.Fatalf("admitted request finished %d, want 200", code)
	}
	var st StatsResponse
	getJSON(t, srv.URL+"/stats", &st)
	if st.Admission.RejectedBusy == 0 {
		t.Errorf("rejectedBusy not counted: %+v", st.Admission)
	}
	if st.Admission.InUse != 0 {
		t.Errorf("inUse = %d after drain, want 0", st.Admission.InUse)
	}
}

// With a queue, the second request waits its QueueTimeout and sheds with
// 503 + Retry-After — within the timeout budget, not hanging.
func TestOverloadQueueTimeout(t *testing.T) {
	const qt = 60 * time.Millisecond
	srv := newTestServer(t, func(s *Server) {
		s.AdmitCapacity = 1
		s.AdmitQueue = 4
		s.QueueTimeout = qt
	})
	wait := occupyServer(t, srv, 500*time.Millisecond)

	start := time.Now()
	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", nil)
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("queued-overload status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After")
	}
	if elapsed < qt/2 || elapsed > 10*qt {
		t.Errorf("shedding took %v, want about the %v queue timeout", elapsed, qt)
	}
	if code := wait(); code != http.StatusOK {
		t.Fatalf("admitted request finished %d, want 200", code)
	}
	var st StatsResponse
	getJSON(t, srv.URL+"/stats", &st)
	if st.Admission.RejectedTimeout == 0 {
		t.Errorf("rejectedTimeout not counted: %+v", st.Admission)
	}
}

// A released grant admits the next queued request rather than shedding.
func TestQueuedRequestAdmitted(t *testing.T) {
	srv := newTestServer(t, func(s *Server) {
		s.AdmitCapacity = 1
		s.AdmitQueue = 4
		s.QueueTimeout = 5 * time.Second
	})
	wait := occupyServer(t, srv, 80*time.Millisecond)
	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("queued request finished %d, want 200 after the stall drains", resp.StatusCode)
	}
	if code := wait(); code != http.StatusOK {
		t.Fatalf("first request finished %d", code)
	}
}

// An injected engine panic fails that one request with 500, increments
// the containment counter, and leaves the server serving.
func TestPanicContainment(t *testing.T) {
	srv := newTestServer(t, nil)
	plan := faultinject.NewPlan(11).Add(faultinject.Fault{
		Point: core.PointSerialCandidate, Action: faultinject.Panic, Times: 1,
	})
	faultinject.Activate(plan)
	defer faultinject.Deactivate()

	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", nil)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking query status = %d, want 500", resp.StatusCode)
	}
	if plan.Fired(core.PointSerialCandidate) != 1 {
		t.Fatalf("fault fired %d times", plan.Fired(core.PointSerialCandidate))
	}
	var sr SearchResponse
	resp = getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", &sr)
	if resp.StatusCode != http.StatusOK || len(sr.Results) == 0 {
		t.Fatalf("server did not recover: status %d, %+v", resp.StatusCode, sr)
	}
	var st StatsResponse
	getJSON(t, srv.URL+"/stats", &st)
	if st.Server.PanicsRecovered != 1 {
		t.Errorf("panicsRecovered = %d, want 1", st.Server.PanicsRecovered)
	}
}

// A query stalled past the server's evaluation timeout degrades to a
// 200 partial response instead of an error.
func TestPartialSearchResponse(t *testing.T) {
	srv := newTestServer(t, func(s *Server) {
		s.Timeout = 20 * time.Millisecond
	})
	plan := faultinject.NewPlan(13).Add(faultinject.Fault{
		Point: core.PointSerialCandidate, Action: faultinject.Stall, StallFor: 40 * time.Millisecond,
	})
	faultinject.Activate(plan)
	defer faultinject.Deactivate()

	var sr SearchResponse
	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &sr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded query status = %d, want 200", resp.StatusCode)
	}
	if !sr.Partial {
		t.Fatalf("response not marked partial: %+v", sr)
	}
	if !sr.Stats.TimedOut {
		t.Errorf("stats.timedOut false on a deadline stop")
	}
	for i, r := range sr.Results {
		if r.Exact && r.Score >= sr.ScoreLowerBound {
			t.Errorf("result %d marked exact with score %v >= bound %v", i, r.Score, sr.ScoreLowerBound)
		}
	}
}

func TestReadyz(t *testing.T) {
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := New(ds)
	srv := httptest.NewServer(s)
	defer srv.Close()

	if resp := getJSON(t, srv.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz = %d, want 200", resp.StatusCode)
	}
	s.SetReady(false)
	if resp := getJSON(t, srv.URL+"/readyz", nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz = %d, want 503", resp.StatusCode)
	}
	// Liveness is unaffected by draining.
	if resp := getJSON(t, srv.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain = %d, want 200", resp.StatusCode)
	}
	s.SetReady(true)
	if resp := getJSON(t, srv.URL+"/readyz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-enabled readyz = %d, want 200", resp.StatusCode)
	}
}

// NaN/Inf coordinates are client errors on every spatial endpoint.
func TestNonFiniteCoordinates(t *testing.T) {
	srv := newTestServer(t, nil)
	for _, path := range []string{
		"/search?x=NaN&y=0&kw=roman",
		"/search?x=0&y=Inf&kw=roman",
		"/search?x=-Inf&y=0&kw=roman",
		"/nearest?x=NaN&y=0",
		"/nearest?x=0&y=+Inf",
	} {
		resp := getJSON(t, srv.URL+path, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, resp.StatusCode)
		}
	}
}
