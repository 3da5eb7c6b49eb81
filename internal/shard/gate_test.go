package shard

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ksp"
	"ksp/internal/faultinject"
)

// liveFake is a scripted shard that, like Local, can offer into
// Request.Bound before it returns — the only kind the gate waits for.
type liveFake struct{ fakeShard }

func (*liveFake) publishesLive() {}

// at places a shard's MBR d to the right of the query origin, so its
// dispatch order and MinScore floor are both d.
func at(d float64) (ksp.Rect, bool) {
	return ksp.Rect{MinX: d, MinY: 0, MaxX: d + 1, MaxY: 1}, true
}

// callClock records when a shard was first called, relative to the
// clock's creation.
type callClock struct {
	start time.Time
	first atomic.Int64 // nanoseconds; 0 = never called
}

func newCallClock() *callClock { return &callClock{start: time.Now()} }

func (c *callClock) note() { c.first.CompareAndSwap(0, int64(time.Since(c.start))) }

func (c *callClock) when() (time.Duration, bool) {
	d := time.Duration(c.first.Load())
	return d, d != 0
}

func statusOf(t *testing.T, g *Gather, name string) Status {
	t.Helper()
	for _, s := range g.Shards {
		if s.Shard == name {
			return s
		}
	}
	t.Fatalf("no status for shard %q in %+v", name, g.Shards)
	return Status{}
}

// The head start ends the moment θ exists: a far tile is released while
// the nearest is still running, sees the established θ, and is not
// called before that.
func TestGateOpensWhenBoundEstablished(t *testing.T) {
	offered := make(chan struct{})
	release := make(chan struct{})
	farCalled := make(chan struct{})
	near := &liveFake{fakeShard{name: "near"}}
	near.bounds, near.hasBounds = at(0)
	near.search = func(_ context.Context, _ int, req Request) (*Response, error) {
		<-offered
		req.Bound.Offer(1, 3.0)
		req.Bound.Offer(2, 4.0) // K = 2: θ = 4 from here on
		<-release
		return okResp(1, 3.0, 2, 4.0), nil
	}
	far := &fakeShard{name: "far", search: func(context.Context, int, Request) (*Response, error) {
		close(farCalled)
		return okResp(9, 3.5), nil
	}}
	far.bounds, far.hasBounds = at(2) // MinScore 2 < θ: must be called, not pruned
	c := mustCoord(t, quietCfg(), near, far)

	type out struct {
		g   *Gather
		err error
	}
	done := make(chan out, 1)
	go func() {
		g, err := c.Search(context.Background(), testReq)
		done <- out{g, err}
	}()

	select {
	case <-farCalled:
		t.Fatal("far tile dispatched before any threshold existed")
	case <-time.After(30 * time.Millisecond):
	}
	close(offered)
	select {
	case <-farCalled: // released by the bound alone: near is still blocked
	case <-time.After(2 * time.Second):
		t.Fatal("far tile still held although the bound is established")
	}
	close(release)
	o := <-done
	if o.err != nil {
		t.Fatal(o.err)
	}
	if st := statusOf(t, o.g, "far"); st.State != StateOK || st.ThetaAtStart != 4.0 || st.GatedMicros == 0 {
		t.Fatalf("far status = %+v, want ok, θ 4 at start, held for the head start", st)
	}
	if st := statusOf(t, o.g, "near"); st.GatedMicros != 0 || st.ThetaAtStart != 0 {
		t.Fatalf("near status = %+v: the nearest tile is never held and starts without θ", st)
	}
	if len(o.g.Results) != 2 || o.g.Results[0].Place != 1 || o.g.Results[1].Place != 9 {
		t.Fatalf("results = %+v, want places 1 and 9", o.g.Results)
	}
}

// Live tiles that finish without establishing θ (fewer than K places
// each) hand the head start on one at a time: while no threshold exists
// nothing runs blind next to a nearer live tile.
func TestGatePassesHeadStartAlong(t *testing.T) {
	var mu sync.Mutex
	inFlight, maxInFlight := 0, 0
	var tiles []Shard
	for i, name := range []string{"t0", "t1", "t2"} {
		place := uint32(i + 1)
		tile := &liveFake{fakeShard{name: name}}
		tile.bounds, tile.hasBounds = at(float64(i))
		tile.search = func(_ context.Context, _ int, req Request) (*Response, error) {
			mu.Lock()
			inFlight++
			if inFlight > maxInFlight {
				maxInFlight = inFlight
			}
			mu.Unlock()
			time.Sleep(2 * time.Millisecond)
			req.Bound.Offer(place, 10+float64(place))
			mu.Lock()
			inFlight--
			mu.Unlock()
			return okResp(float64(place), 10+float64(place)), nil
		}
		tiles = append(tiles, tile)
	}
	c := mustCoord(t, quietCfg(), tiles...)
	req := testReq
	req.K = 5
	g, err := c.Search(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if maxInFlight != 1 {
		t.Fatalf("%d live tiles ran side by side without a threshold, want 1 at a time", maxInFlight)
	}
	if len(g.Results) != 3 || g.Partial {
		t.Fatalf("gather = %+v, want all three places, exact", g)
	}
}

// A nearest tile that neither answers nor publishes must not serialise
// the gather: with hedging on, the tiles behind it start at the hedge
// delay — long before the stalled call gives up.
func TestGateStalledNearestOpensAtHedgeDelay(t *testing.T) {
	const hedge, attempt = 20 * time.Millisecond, 400 * time.Millisecond
	near := &liveFake{fakeShard{name: "near"}}
	near.bounds, near.hasBounds = at(0)
	near.search = func(ctx context.Context, _ int, _ Request) (*Response, error) {
		<-ctx.Done() // primary and hedge alike stall for the whole attempt
		return nil, ctx.Err()
	}
	farCall := newCallClock()
	far := &fakeShard{name: "far", search: func(context.Context, int, Request) (*Response, error) {
		farCall.note()
		return okResp(9, 7.0), nil
	}}
	far.bounds, far.hasBounds = at(5)
	cfg := quietCfg()
	cfg.HedgeAfter = hedge
	cfg.AttemptTimeout = attempt
	cfg.MaxAttempts = 1
	c := mustCoord(t, cfg, near, far)

	g, err := c.Search(context.Background(), testReq)
	if err != nil {
		t.Fatal(err)
	}
	when, ok := farCall.when()
	if !ok || when < hedge || when > attempt/2 {
		t.Fatalf("far tile dispatched at %v (called %v), want between the hedge delay %v and well before the attempt timeout %v",
			when, ok, hedge, attempt)
	}
	// The sound degraded answer of DESIGN §14.4: the lost nearest tile
	// floors at MinScore(0) = 0, so nothing can be proven exact.
	if !g.Partial || !g.Degraded || g.Bound != 0 || len(g.Results) != 1 || g.Results[0].Exact {
		t.Fatalf("gather = %+v, want a degraded partial with an unproven place 9", g)
	}
	if st := statusOf(t, g, "far"); st.GatedMicros < hedge.Microseconds() {
		t.Fatalf("far status = %+v, want gatedMicros ≥ the hedge delay", st)
	}
}

// The same through fault injection, hedging off: a Stall at shard.call
// hits the nearest tile's only attempt (everything else is still
// gated), the gate falls back to the attempt timeout, and the far tile
// runs then. A Panic there fails the nearest tile at once and the far
// tile starts immediately. Both are sound degraded answers.
func TestGateUnderInjectedStallAndPanic(t *testing.T) {
	const attempt = 40 * time.Millisecond
	for _, tc := range []struct {
		name  string
		fault faultinject.Fault
		// the far tile must start no earlier / no later than this
		earliest, latest time.Duration
	}{
		{"stall", faultinject.Fault{Point: PointCall, Action: faultinject.Stall, StallFor: 500 * time.Millisecond, Times: 1}, attempt, 300 * time.Millisecond},
		{"panic", faultinject.Fault{Point: PointCall, Action: faultinject.Panic, Times: 1}, 0, attempt / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			faultinject.Activate(faultinject.NewPlan(3).Add(tc.fault))
			t.Cleanup(faultinject.Deactivate)

			near := &liveFake{fakeShard{name: "near", search: alwaysOK(okResp(1, 1.0, 2, 2.0))}}
			near.bounds, near.hasBounds = at(1)
			farCall := newCallClock()
			far := &fakeShard{name: "far", search: func(context.Context, int, Request) (*Response, error) {
				farCall.note()
				return okResp(8, 6.0, 9, 7.0), nil
			}}
			far.bounds, far.hasBounds = at(5)
			cfg := quietCfg() // hedging off
			cfg.AttemptTimeout = attempt
			cfg.MaxAttempts = 1
			c := mustCoord(t, cfg, near, far)

			g, err := c.Search(context.Background(), testReq)
			if err != nil {
				t.Fatal(err)
			}
			when, ok := farCall.when()
			if !ok || when < tc.earliest || when > tc.latest {
				t.Fatalf("far tile dispatched at %v (called %v), want within [%v, %v]", when, ok, tc.earliest, tc.latest)
			}
			if st := statusOf(t, g, "near"); st.State != StateError {
				t.Fatalf("near status = %+v, want error", st)
			}
			// The lost tile floors at MinScore(1) = 1; the far places score
			// 6 and 7, so both are returned and neither is provably exact.
			if !g.Partial || !g.Degraded || g.Bound != 1 || len(g.Results) != 2 || g.Results[0].Exact || g.Results[1].Exact {
				t.Fatalf("gather = %+v, want degraded partial, bound 1, two unproven results", g)
			}
		})
	}
}

// Shards that cannot publish before they return never hold the gate: a
// coordinator of only such shards (all Remote, or scripted fakes) has
// every call in flight at once, exactly as before the gate existed.
func TestGateIgnoresNonPublishingShards(t *testing.T) {
	const n = 4
	var arrived sync.WaitGroup
	arrived.Add(n)
	all := make(chan struct{})
	go func() { arrived.Wait(); close(all) }()
	var members []Shard
	for i := 0; i < n; i++ {
		place := float64(i + 1)
		sh := &fakeShard{name: string(rune('a' + i))}
		sh.bounds, sh.hasBounds = at(float64(i))
		sh.search = func(context.Context, int, Request) (*Response, error) {
			arrived.Done()
			select {
			case <-all: // every shard is in flight together
				return okResp(place, 100+place), nil
			case <-time.After(2 * time.Second):
				return nil, errors.New("dispatch was serialised: the other shards never started")
			}
		}
		members = append(members, sh)
	}
	cfg := quietCfg()
	cfg.MaxAttempts = 1
	c := mustCoord(t, cfg, members...)
	g, err := c.Search(context.Background(), testReq)
	if err != nil {
		t.Fatal(err)
	}
	if g.Degraded || len(g.Results) != 2 {
		t.Fatalf("gather = %+v, want the exact two best", g)
	}
	for _, st := range g.Shards {
		if st.State != StateOK || st.GatedMicros != 0 {
			t.Fatalf("status %+v: a non-publishing coordinator must dispatch everything at once, ungated", st)
		}
	}
}

// The caller giving up opens the gate too: nothing stays parked behind
// a head start nobody is waiting for any more.
func TestGateOpensOnCallerCancellation(t *testing.T) {
	near := &liveFake{fakeShard{name: "near"}}
	near.bounds, near.hasBounds = at(0)
	near.search = func(ctx context.Context, _ int, _ Request) (*Response, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	far := &fakeShard{name: "far", search: func(ctx context.Context, _ int, _ Request) (*Response, error) {
		return nil, ctx.Err()
	}}
	far.bounds, far.hasBounds = at(5)
	cfg := quietCfg()
	cfg.AttemptTimeout = time.Minute // the gate delay: far beyond the test
	cfg.MaxAttempts = 1
	c := mustCoord(t, cfg, near, far)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	done := make(chan error, 1)
	go func() {
		_, err := c.Search(ctx, testReq)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("gather stayed parked at the gate after the caller cancelled")
	}
}

// A hedged tile's two attempts both offer the same place. Counted
// twice, that one place would establish a top-2 threshold at its own
// score and prune the tile holding the true second place; counted once,
// the bound stays open and the far tile is heard.
func TestHedgedAttemptsOfferOnePlaceOnce(t *testing.T) {
	both := make(chan struct{})
	near := &liveFake{fakeShard{name: "near"}}
	near.bounds, near.hasBounds = at(0)
	near.search = func(ctx context.Context, call int, req Request) (*Response, error) {
		req.Bound.Offer(1, 1.0)
		if call == 2 {
			close(both)
		}
		select {
		case <-both: // neither attempt answers before both have offered
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return okResp(1, 1.0), nil
	}
	far := &fakeShard{name: "far", search: alwaysOK(okResp(2, 2.0, 3, 3.0))}
	far.bounds, far.hasBounds = at(1.5)
	cfg := quietCfg()
	cfg.HedgeAfter = time.Millisecond
	c := mustCoord(t, cfg, near, far)

	g, err := c.Search(context.Background(), testReq) // K = 2
	if err != nil {
		t.Fatal(err)
	}
	if st := statusOf(t, g, "near"); !st.Hedged {
		t.Fatalf("near status = %+v, want a hedged call", st)
	}
	if st := statusOf(t, g, "far"); st.State != StateOK || st.ThetaAtStart != 0 {
		t.Fatalf("far status = %+v: one place offered twice must not establish a top-2 threshold", st)
	}
	if g.Partial || len(g.Results) != 2 || g.Results[0].Place != 1 || g.Results[1].Place != 2 {
		t.Fatalf("gather = %+v, want the exact places 1 and 2", g)
	}
}
