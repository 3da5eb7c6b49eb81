package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// keepEvery is the verification stride: every body is checked for status
// and the partial/degraded flags as it arrives, and every keepEvery-th is
// kept and compared with the reference answer once the clock has stopped.
// A warm-up additionally keeps every one of its first operations.
const keepEvery = 16

// loadResult is what one closed-loop run observed.
type loadResult struct {
	attempted int
	failed    int
	shed      int
	wall      time.Duration
	// lat holds, sorted, the latencies in ns of the operations that fell
	// into whole pool cycles — the run's last, partial cycle is left out,
	// so every run's percentiles cover the same multiset of queries
	// however many cycles it completed. (A run shorter than one cycle
	// keeps everything.)
	lat       []int64
	firstFail string
}

type keptBody struct {
	query int
	body  []byte
}

// wireAnswer is the part of the /search payload answers are judged on.
type wireAnswer struct {
	Results []struct {
		URI   string  `json:"uri"`
		Score float64 `json:"score"`
	} `json:"results"`
	Partial  bool `json:"partial"`
	Degraded bool `json:"degraded"`
}

// flagged reports a partial or degraded answer without decoding it: both
// fields are omitted from the payload unless true.
func flagged(body []byte) bool {
	return bytes.Contains(body, []byte(`"partial":`)) || bytes.Contains(body, []byte(`"degraded":`))
}

func checkBody(body []byte, want []hit) error {
	var a wireAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("undecodable body: %w", err)
	}
	if a.Partial || a.Degraded {
		return fmt.Errorf("partial or degraded answer")
	}
	got := make([]hit, len(a.Results))
	for i, r := range a.Results {
		got[i] = hit{uri: r.URI, score: r.Score}
	}
	if !sameHits(got, want) {
		return fmt.Errorf("answer %v, want %v", got, want)
	}
	return nil
}

// closedLoop drives /search from `clients` goroutines, each sending its
// next request only when the previous one completed. Operation i asks
// pool query order[i mod len(order)]; the clients draw i from one shared
// counter, so the same query is never in flight twice and the server's
// singleflight never coalesces. The run ends after ops operations when
// ops > 0, otherwise when `limit` has elapsed. The answers of the first
// verifyFirst operations and of every keepEvery-th after them are
// compared with the reference once the clock has stopped. tr, when
// non-nil, receives one client.get span per op.
func closedLoop(s *served, in *inputs, order []int, ops int, limit time.Duration, verifyFirst int, tr *tracer) loadResult {
	var (
		next     atomic.Int64
		mu       sync.Mutex
		res      loadResult
		kept     []keptBody
		lat      []opLatency
		wg       sync.WaitGroup
		start    = time.Now()
		deadline = start.Add(limit)
	)
	fail := func(local *loadResult, why string) {
		local.failed++
		if local.firstFail == "" {
			local.firstFail = why
		}
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local loadResult
			var localKept []keptBody
			var localLat []opLatency
			var buf []byte
			for {
				i := int(next.Add(1) - 1)
				if ops > 0 && i >= ops {
					break
				}
				if ops <= 0 && time.Now().After(deadline) {
					break
				}
				qi := order[i%len(order)]
				t0 := time.Now()
				status, body, err := s.get(in.pool[qi].path, buf)
				t1 := time.Now()
				buf = body
				local.attempted++
				localLat = append(localLat, opLatency{i, t1.Sub(t0).Nanoseconds()})
				tr.add("client.get", t0, t1, -1, i)
				switch {
				case err != nil:
					fail(&local, err.Error())
				case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
					local.shed++
					fail(&local, fmt.Sprintf("shed with %d", status))
				case status != http.StatusOK:
					fail(&local, fmt.Sprintf("status %d", status))
				case flagged(body):
					fail(&local, "partial or degraded answer")
				case i < verifyFirst || i%keepEvery == 0:
					localKept = append(localKept, keptBody{qi, append([]byte(nil), body...)})
				}
			}
			mu.Lock()
			res.attempted += local.attempted
			res.failed += local.failed
			res.shed += local.shed
			lat = append(lat, localLat...)
			if res.firstFail == "" {
				res.firstFail = local.firstFail
			}
			kept = append(kept, localKept...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	bad, why := in.verify(s, kept)
	res.failed += bad
	if res.firstFail == "" {
		res.firstFail = why
	}
	whole := res.attempted / len(order) * len(order)
	if whole == 0 {
		whole = res.attempted
	}
	for _, l := range lat {
		if l.op < whole {
			res.lat = append(res.lat, l.ns)
		}
	}
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	return res
}

// opLatency is the latency of the run's op-th operation.
type opLatency struct {
	op int
	ns int64
}

// verify compares kept bodies with the reference answers (computing the
// references not yet known) and returns how many differ, with the first
// difference. It runs after the clock has stopped.
func (in *inputs) verify(s *served, kept []keptBody) (bad int, why string) {
	ids := make([]int, len(kept))
	for i, kb := range kept {
		ids[i] = kb.query
	}
	if err := in.expect(s.ds, ids); err != nil {
		return len(kept), err.Error()
	}
	for _, kb := range kept {
		if err := checkBody(kb.body, in.expected[kb.query]); err != nil {
			bad++
			if why == "" {
				why = fmt.Sprintf("query %d: %v", kb.query, err)
			}
		}
	}
	return bad, why
}

// percentile returns the nearest-rank p-quantile of sorted ns latencies
// in ms, and how many samples lie beyond it.
func percentile(sorted []int64, p float64) (ms float64, beyond int) {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return float64(sorted[idx]) / 1e6, len(sorted) - 1 - idx
}

// shuffled returns a seeded permutation of 0..n-1: the order a run walks
// the pool in.
func shuffled(n int, seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(n)
}

// openLoopResult is what the open-loop probe observed.
type openLoopResult struct {
	sent, shed, failed int
	lat                []int64 // from due time, ns, sorted
	late               []int64 // actual send minus due time, ns, sorted
}

// openLoopRate is the probe's fixed arrival rate in requests per second.
const openLoopRate = 200

// openLoop sends seeded Poisson arrivals at openLoopRate for d,
// regardless of completions, and times each request from the moment it
// was due, so a stall shows as latency on every request queued behind
// it. It also records how late the generator itself ran.
func openLoop(s *served, in *inputs, order []int, d time.Duration, seed int64) openLoopResult {
	rng := rand.New(rand.NewSource(seed))
	var (
		mu   sync.Mutex
		res  openLoopResult
		kept []keptBody
		wg   sync.WaitGroup
	)
	// Arrivals do not wait for completions, so the probe needs more idle
	// connections than the closed loop's one per client.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 64}}
	defer client.CloseIdleConnections()
	start := time.Now()
	due := time.Duration(0)
	for i := 0; ; i++ {
		due += time.Duration(rng.ExpFloat64() / openLoopRate * float64(time.Second))
		if due > d {
			break
		}
		if wait := time.Until(start.Add(due)); wait > 0 {
			time.Sleep(wait)
		}
		dueAt := start.Add(due)
		sentAt := time.Now()
		qi := order[i%len(order)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, body, err := get(client, s.base+in.pool[qi].path, nil)
			lat := time.Since(dueAt).Nanoseconds()
			mu.Lock()
			defer mu.Unlock()
			res.sent++
			res.lat = append(res.lat, lat)
			res.late = append(res.late, sentAt.Sub(dueAt).Nanoseconds())
			switch {
			case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
				res.shed++
			case err != nil || status != http.StatusOK:
				res.failed++
			default:
				kept = append(kept, keptBody{qi, body})
			}
		}()
	}
	wg.Wait()
	bad, _ := in.verify(s, kept)
	res.failed += bad
	sort.Slice(res.lat, func(i, j int) bool { return res.lat[i] < res.lat[j] })
	sort.Slice(res.late, func(i, j int) bool { return res.late[i] < res.late[j] })
	return res
}
