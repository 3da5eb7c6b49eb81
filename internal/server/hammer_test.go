package server

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"ksp/internal/core"
	"ksp/internal/faultinject"
)

// The concurrency hammer: many concurrent /search requests, across
// window settings, while faultinject panics fire probabilistically at
// the per-candidate step, inside the BFS and at window fills, and a
// slice of clients cancel mid-flight. Every request must resolve to a
// well-formed outcome (200, 500 from a contained panic, or a client
// cancellation) and — via the package TestMain leak check — no goroutine
// may outlive its request. Run under -race in CI's multicore job.
func TestHammerSearchChaos(t *testing.T) {
	srv := newTestServer(t, func(s *Server) {
		s.AdmitCapacity = 64 // wide open: contention comes from the requests
	})
	plan := faultinject.NewPlan(1337).
		Add(faultinject.Fault{Point: core.PointSerialCandidate, Action: faultinject.Panic, Prob: 0.02}).
		Add(faultinject.Fault{Point: core.PointWindowFill, Action: faultinject.Panic, Prob: 0.01}).
		Add(faultinject.Fault{Point: core.PointBFS, Action: faultinject.Panic, Prob: 0.002})
	faultinject.Activate(plan)
	t.Cleanup(faultinject.Deactivate)

	const clients, rounds = 8, 12
	var ok, contained, cancelled, other int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithCancel(context.Background())
				if (c+r)%3 == 0 {
					// A third of the clients disconnect mid-query.
					time.AfterFunc(time.Duration(r%5)*100*time.Microsecond, cancel)
				}
				url := fmt.Sprintf("%s/search?x=%d&y=%d&kw=roman,history&k=2&window=%d",
					srv.URL, c%7, r%7, []int{0, 1, 4, 16}[r%4])
				req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
				if err != nil {
					t.Error(err)
					cancel()
					return
				}
				resp, err := http.DefaultClient.Do(req)
				mu.Lock()
				switch {
				case err != nil && ctx.Err() != nil:
					cancelled++
				case err != nil:
					other++
					t.Errorf("request failed without cancellation: %v", err)
				case resp.StatusCode == http.StatusOK:
					ok++
				case resp.StatusCode == http.StatusInternalServerError:
					contained++ // injected panic, contained by the server
				default:
					other++
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
				mu.Unlock()
				if resp != nil {
					resp.Body.Close()
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()

	if ok == 0 {
		t.Fatalf("no request succeeded (ok=%d contained=%d cancelled=%d other=%d)",
			ok, contained, cancelled, other)
	}
	// The dataset must still answer cleanly once the chaos plan is gone.
	faultinject.Deactivate()
	var got SearchResponse
	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &got)
	if resp.StatusCode != http.StatusOK || len(got.Results) != 2 {
		t.Fatalf("post-chaos search: status %d, %d results", resp.StatusCode, len(got.Results))
	}
}
