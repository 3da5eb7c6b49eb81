package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"ksp"
	"ksp/internal/faultinject"
	"ksp/internal/shard"
)

// failShard is a shard.Shard that always errors — the server-level
// stand-in for a dead peer.
type failShard struct {
	name      string
	bounds    ksp.Rect
	hasBounds bool
}

func (f *failShard) Name() string             { return f.name }
func (f *failShard) Bounds() (ksp.Rect, bool) { return f.bounds, f.hasBounds }
func (f *failShard) Search(context.Context, shard.Request) (*shard.Response, error) {
	return nil, errors.New("shard down")
}
func (f *failShard) Ping(context.Context) error { return errors.New("shard down") }

// okShard wraps a Local shard (used where tests mix healthy and dead
// members).
func localShards(t *testing.T, ds *ksp.Dataset, n int) []shard.Shard {
	t.Helper()
	tiles, err := ds.PartitionSpatial(n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]shard.Shard, len(tiles))
	for i, tile := range tiles {
		out[i] = shard.NewLocal(fmt.Sprintf("tile%d", i), tile)
	}
	return out
}

func quietShardCfg() shard.Config {
	return shard.Config{HedgeAfter: -1, HealthInterval: -1}
}

// shardedServer builds an httptest server whose /search scatter-gathers
// across the given shards.
func shardedServer(t *testing.T, ds *ksp.Dataset, cfg shard.Config, members ...shard.Shard) (*httptest.Server, *Server) {
	t.Helper()
	s := New(ds)
	coord, err := shard.New(members, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	s.AttachShards(coord)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return srv, s
}

func fixtureDS(t *testing.T) *ksp.Dataset {
	t.Helper()
	ds, err := ksp.Open(strings.NewReader(fixtureNT), ksp.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// A sharded /search must be JSON-identical (results-wise) to the
// single-engine response over the same dataset.
func TestShardedSearchMatchesSingleEngine(t *testing.T) {
	ds := fixtureDS(t)
	single := testServer(t)
	sharded, _ := shardedServer(t, ds, quietShardCfg(), localShards(t, ds, 2)...)

	for _, q := range []string{
		"/search?x=0&y=0&kw=roman,history&k=2",
		"/search?x=0&y=0&kw=roman,history&k=2&trees=1",
		"/search?x=4&y=4&kw=roman&k=1",
		"/search?x=0&y=0&kw=roman,history&k=2&maxdist=3",
	} {
		var want, got SearchResponse
		if resp := getJSON(t, single.URL+q, &want); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: single status %d", q, resp.StatusCode)
		}
		if resp := getJSON(t, sharded.URL+q, &got); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: sharded status %d", q, resp.StatusCode)
		}
		if !reflect.DeepEqual(got.Results, want.Results) {
			t.Errorf("%s: sharded results diverge:\n%+v\n%+v", q, got.Results, want.Results)
		}
		if got.Partial || got.Degraded {
			t.Errorf("%s: healthy sharded response flagged partial=%v degraded=%v", q, got.Partial, got.Degraded)
		}
		for _, st := range got.Shards {
			switch st.State {
			case shard.StateOK, shard.StatePruned, shard.StateSkipped:
			default:
				t.Errorf("%s: shard %s state %q on a healthy gather", q, st.Shard, st.State)
			}
		}
	}
}

// Losing one shard degrades to a sound partial 200: partial+degraded
// set, a positive score floor, per-shard error detail, and exactness
// flags honest against the floor.
func TestShardedSearchDegradedOnShardFailure(t *testing.T) {
	ds := fixtureDS(t)
	dead := &failShard{
		name:      "dead",
		bounds:    ksp.Rect{MinX: 100, MinY: 100, MaxX: 101, MaxY: 101},
		hasBounds: true,
	}
	cfg := quietShardCfg()
	cfg.MaxAttempts = 1
	cfg.BreakerThreshold = 100 // keep the breaker out of this test
	srv, _ := shardedServer(t, ds, cfg, append(localShards(t, ds, 1), dead)...)

	// k=3 over two qualifying places: the live tile never establishes θ,
	// so the dead shard cannot be pruned and must be called.
	var got SearchResponse
	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=3", &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 (sound partial)", resp.StatusCode)
	}
	if !got.Partial || !got.Degraded {
		t.Fatalf("partial=%v degraded=%v, want both true", got.Partial, got.Degraded)
	}
	if got.ScoreLowerBound <= 0 {
		t.Fatalf("scoreLowerBound = %v, want the dead shard's MinDist floor", got.ScoreLowerBound)
	}
	if len(got.Results) != 2 {
		t.Fatalf("results = %+v", got.Results)
	}
	// The dead shard's MBR is ~140 away; both fixture scores beat that
	// floor, so the prefix is provably exact.
	for i, r := range got.Results {
		if !r.Exact {
			t.Errorf("result %d not exact despite beating the floor: %+v", i, r)
		}
	}
	var deadStatus *shard.Status
	for i := range got.Shards {
		if got.Shards[i].Shard == "dead" {
			deadStatus = &got.Shards[i]
		}
	}
	if deadStatus == nil || deadStatus.State != shard.StateError || deadStatus.Error == "" {
		t.Fatalf("dead shard status = %+v, want error state with detail", deadStatus)
	}

	// With k=2 the live tile establishes θ during its head start, the far
	// dead shard is pruned unseen, and the answer is exact: a dead shard
	// that provably holds nothing degrades nothing.
	got = SearchResponse{}
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &got)
	if got.Partial || got.Degraded || len(got.Results) != 2 {
		t.Fatalf("k=2: partial=%v degraded=%v results=%+v, want the exact pair", got.Partial, got.Degraded, got.Results)
	}
	for _, st := range got.Shards {
		if st.Shard == "dead" && (st.State != shard.StatePruned || st.ThetaAtStart == 0) {
			t.Fatalf("k=2: dead shard status = %+v, want pruned under a finite θ", st)
		}
	}
}

// Every shard dead: 503 with Retry-After and the machine-readable
// degraded body.
func TestShardedSearchAllFailed(t *testing.T) {
	ds := fixtureDS(t)
	cfg := quietShardCfg()
	cfg.MaxAttempts = 1
	cfg.BreakerCooldown = 7 * time.Second
	srv, _ := shardedServer(t, ds, cfg, &failShard{name: "only"})

	var body struct {
		Error             string         `json:"error"`
		Reason            string         `json:"degraded"`
		RetryAfterSeconds int            `json:"retryAfterSeconds"`
		Shards            []shard.Status `json:"shards"`
	}
	resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", &body)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want %q (the breaker cooldown)", ra, "7")
	}
	if body.Reason != DegradedAllShardsFailed {
		t.Errorf("degraded reason = %q, want %q", body.Reason, DegradedAllShardsFailed)
	}
	if body.RetryAfterSeconds != 7 || body.Error == "" {
		t.Errorf("body = %+v", body)
	}
	if len(body.Shards) != 1 || body.Shards[0].State != shard.StateError {
		t.Errorf("per-shard detail = %+v", body.Shards)
	}
}

// /readyz on a sharded server: JSON with per-shard breaker health,
// flipping unready only once a quorum (half or more) of shards is down.
func TestShardedReadyQuorum(t *testing.T) {
	ds := fixtureDS(t)
	flaky := []*failShard{
		{name: "s0"}, {name: "s1"},
	}
	cfg := quietShardCfg()
	cfg.MaxAttempts = 1
	cfg.BreakerThreshold = 1
	cfg.BreakerCooldown = time.Hour
	members := append(localShards(t, ds, 1), flaky[0], flaky[1])
	srv, s := shardedServer(t, ds, cfg, members...)

	var ready ReadyResponse
	if resp := getJSON(t, srv.URL+"/readyz", &ready); resp.StatusCode != http.StatusOK {
		t.Fatalf("all-up readyz status %d", resp.StatusCode)
	}
	if !ready.Ready || ready.ShardsUp != 3 || ready.ShardsTotal != 3 {
		t.Fatalf("readyz = %+v, want 3/3 up", ready)
	}

	// One search trips both dead shards' breakers (threshold 1). One of
	// three down: a strict majority still stands, so routing continues.
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman&k=1", nil)
	up, total := s.Shards.Healthy()
	if up != 1 || total != 3 {
		t.Fatalf("Healthy() = %d/%d after tripping, want 1/3", up, total)
	}
	resp := getJSON(t, srv.URL+"/readyz", &ready)
	if resp.StatusCode != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("quorum-down readyz: status %d ready=%v, want 503 false", resp.StatusCode, ready.Ready)
	}
	downNames := map[string]bool{}
	for _, sh := range ready.Shards {
		if !sh.Up {
			downNames[sh.Name] = true
			if sh.Breaker != "open" {
				t.Errorf("down shard %s breaker = %q", sh.Name, sh.Breaker)
			}
		}
	}
	if !downNames["s0"] || !downNames["s1"] || len(downNames) != 2 {
		t.Errorf("down shards = %v, want s0 and s1", downNames)
	}
}

// /stats on a sharded server exports the dataset MBR (what remote
// coordinators scrape for pruning) and the per-shard section.
func TestShardedStatsSections(t *testing.T) {
	ds := fixtureDS(t)
	srv, _ := shardedServer(t, ds, quietShardCfg(), localShards(t, ds, 2)...)

	var st StatsResponse
	getJSON(t, srv.URL+"/stats", &st)
	wantBounds, ok := ds.Bounds()
	if !ok {
		t.Fatal("fixture dataset has no bounds")
	}
	if st.Bounds == nil {
		t.Fatal("stats bounds section missing")
	}
	if st.Bounds.MinX != wantBounds.MinX || st.Bounds.MaxX != wantBounds.MaxX ||
		st.Bounds.MinY != wantBounds.MinY || st.Bounds.MaxY != wantBounds.MaxY {
		t.Errorf("bounds = %+v, want %+v", st.Bounds, wantBounds)
	}
	if len(st.Shards) != 2 {
		t.Fatalf("shard section = %+v, want 2 entries", st.Shards)
	}
	places := 0
	for _, info := range st.Shards {
		if info.Breaker != "closed" {
			t.Errorf("shard %s breaker = %q at rest", info.Name, info.Breaker)
		}
		places += info.Places
	}
	if places != ds.Stats().Places {
		t.Errorf("per-shard places sum to %d, want %d", places, ds.Stats().Places)
	}
}

// The shard chaos hammer: concurrent sharded searches while faults
// kill, stall, and truncate shard calls — shards effectively dying and
// reviving mid-run via breaker trips and short cooldowns. Every request
// must resolve to a well-formed outcome (200 exact, 200 sound partial,
// or a degraded 503), and the package leak check must stay clean. The
// companion to TestHammerSearchChaos, one layer up.
func TestHammerShardChaos(t *testing.T) {
	ds := fixtureDS(t)
	cfg := quietShardCfg()
	cfg.AttemptTimeout = 250 * time.Millisecond
	cfg.MaxAttempts = 2
	cfg.BackoffBase = time.Millisecond
	cfg.BackoffMax = 2 * time.Millisecond
	cfg.HedgeAfter = 10 * time.Millisecond
	cfg.BreakerThreshold = 2
	cfg.BreakerCooldown = 20 * time.Millisecond // revive quickly mid-run
	srv, s := shardedServer(t, ds, cfg, localShards(t, ds, 2)...)

	plan := faultinject.NewPlan(4242).
		Add(faultinject.Fault{Point: shard.PointCall, Action: faultinject.Panic, Prob: 0.25}).
		Add(faultinject.Fault{Point: shard.PointCall, Action: faultinject.Stall, Prob: 0.05, StallFor: 30 * time.Millisecond}).
		Add(faultinject.Fault{Point: shard.PointTruncate, Action: faultinject.Panic, Prob: 0.15})
	faultinject.Activate(plan)
	t.Cleanup(faultinject.Deactivate)

	const clients, rounds = 6, 10
	var okExact, okPartial, degraded503, other int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				url := fmt.Sprintf("%s/search?x=%d&y=%d&kw=roman,history&k=2", srv.URL, c%7, r%7)
				var got SearchResponse
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("request failed: %v", err)
					return
				}
				status := resp.StatusCode
				if status == http.StatusOK {
					if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
						t.Errorf("decode: %v", err)
						resp.Body.Close()
						return
					}
				}
				resp.Body.Close()
				mu.Lock()
				switch {
				case status == http.StatusOK && !got.Partial:
					okExact++
				case status == http.StatusOK && got.Partial:
					okPartial++
					// Soundness invariant: a result flagged exact must
					// provably beat the floor. (A zero floor is legitimate —
					// a truncated shard whose dropped result scored 0 — it
					// just proves nothing exact.)
					for _, res := range got.Results {
						if res.Exact && res.Score >= got.ScoreLowerBound {
							t.Errorf("exact result at score %v does not beat floor %v", res.Score, got.ScoreLowerBound)
						}
					}
				case status == http.StatusServiceUnavailable:
					degraded503++
				default:
					other++
					t.Errorf("unexpected status %d", status)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	if okExact == 0 {
		t.Fatalf("no request fully succeeded (exact=%d partial=%d 503=%d other=%d)",
			okExact, okPartial, degraded503, other)
	}
	if okPartial+degraded503 == 0 {
		t.Fatal("chaos plan never degraded a request; the hammer is not hammering")
	}

	// Once the chaos ends the breakers must recover: the cooldown admits
	// a probe, the probe succeeds, and answers return to exact.
	faultinject.Deactivate()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// A breaker still open from the chaos answers 503, whose body spells
		// "degraded" as a reason string; decode only what both shapes share.
		var got struct {
			Results []SearchResult `json:"results"`
			Partial bool           `json:"partial"`
		}
		resp := getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=2", &got)
		if resp.StatusCode == http.StatusOK && !got.Partial && len(got.Results) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("shards did not recover post-chaos: status %d partial=%v", resp.StatusCode, got.Partial)
		}
		time.Sleep(10 * time.Millisecond)
	}
	up, total := s.Shards.Healthy()
	if up != total {
		t.Errorf("post-chaos Healthy() = %d/%d", up, total)
	}
}

// The head start shows on every surface: the far tile's status row says
// which θ it met and that it was held, EXPLAIN's dispatch table and the
// slow-query wide event repeat exactly that row, and the gate histogram
// counts the held call.
func TestShardedGateObservability(t *testing.T) {
	ds := fixtureDS(t)
	s := New(ds)
	s.EnableSlowLog(8, 0) // zero threshold: every query is retained
	coord, err := shard.New(localShards(t, ds, 2), quietShardCfg())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	s.AttachShards(coord)
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)

	// k=1 from the origin: the Abbey's tile establishes θ = 2·√2, the
	// Fort's tile (MinDist √50) waits for it and is then pruned.
	var got SearchResponse
	getJSON(t, srv.URL+"/search?x=0&y=0&kw=roman,history&k=1&explain=1", &got)
	if len(got.Shards) != 2 || got.Explain == nil || len(got.Explain.Shards) != 2 {
		t.Fatalf("response lacks the dispatch tables: shards=%+v explain=%+v", got.Shards, got.Explain)
	}
	near, far := got.Shards[0], got.Shards[1]
	if near.State != shard.StateOK || near.GatedMicros != 0 || near.ThetaAtStart != 0 {
		t.Errorf("nearest tile = %+v, want ok, never held, no θ at start", near)
	}
	if far.State != shard.StatePruned || far.ThetaAtStart != got.Results[0].Score {
		t.Errorf("far tile = %+v, want pruned under θ = %v", far, got.Results[0].Score)
	}
	ex := got.Explain.Shards[1]
	if ex.GatedMicros != far.GatedMicros || ex.ThetaAtStart != far.ThetaAtStart {
		t.Errorf("EXPLAIN row %+v disagrees with status %+v", ex, far)
	}

	var slow DebugSlowResponse
	getJSON(t, srv.URL+"/debug/slow", &slow)
	if len(slow.Queries) != 1 || len(slow.Queries[0].Shards) != 2 {
		t.Fatalf("slow log = %+v, want one event with two shard rows", slow.Queries)
	}
	if ws := slow.Queries[0].Shards[1]; ws.GatedMicros != far.GatedMicros || ws.ThetaAtStart != far.ThetaAtStart {
		t.Errorf("wide-event row %+v disagrees with status %+v", ws, far)
	}
	if n := scrape(t, srv.URL)["ksp_shard_gate_wait_seconds_count"]; n != 1 {
		t.Errorf("ksp_shard_gate_wait_seconds_count = %v, want 1 (the far tile)", n)
	}
}
