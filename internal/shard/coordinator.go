package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ksp"
	"ksp/internal/obs"
)

// Per-shard call states reported in Gather.Shards.
const (
	// StateOK: the shard answered completely.
	StateOK = "ok"
	// StatePartial: the shard answered, but stopped early (deadline or
	// injected truncation); its Bound floors its unreturned places.
	StatePartial = "partial"
	// StateError: every attempt failed; the shard's MinDist floors its
	// places.
	StateError = "error"
	// StateOpen: the circuit breaker rejected the call without trying.
	StateOpen = "open"
	// StatePruned: the shard's MinDist floor lies above the top-k
	// threshold established by nearer shards — exactness is unaffected.
	StatePruned = "pruned"
	// StateSkipped: the shard lies entirely beyond Request.MaxDist.
	StateSkipped = "skipped"
)

// ErrAllShardsFailed reports a gather in which no shard produced a
// response — there is no sound prefix to return, only per-shard errors
// (the coordinator's 503).
var ErrAllShardsFailed = errors.New("shard: all shards failed")

// Status is one shard's outcome within a single gather.
type Status struct {
	Shard    string `json:"shard"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Hedged   bool   `json:"hedged,omitempty"`
	Micros   int64  `json:"micros,omitempty"`
	// MinDist is the shard MBR's minimum distance to the query location
	// (0 when the MBR is unknown) and Order the shard's position in the
	// ascending-MinDist dispatch order (0 = nearest, considered first).
	// Breaker is the circuit-breaker state observed when the call was
	// admitted ("" for shards never dispatched). All three feed the
	// EXPLAIN surface's dispatch table.
	MinDist float64 `json:"minDist"`
	Order   int     `json:"order"`
	Breaker string  `json:"breaker,omitempty"`
	// GatedMicros is how long the dispatcher held this shard back to give
	// nearer tiles a head start (0 for the nearest shard and whenever
	// nothing was worth waiting for). ThetaAtStart is the gather's shared
	// θ when the shard was dispatched — or pruned; omitted while no
	// threshold existed (+Inf).
	GatedMicros  int64   `json:"gatedMicros,omitempty"`
	ThetaAtStart float64 `json:"thetaAtStart,omitempty"`
}

// Gather is a merged scatter-gather answer. When every dispatched shard
// answered completely, Results is bit-identical to a single-shard run
// over the union dataset (DESIGN.md §14); otherwise Partial is set,
// Bound floors the score of every place a lost or partial shard did not
// account for, and each Result is Exact exactly when its score beats
// Bound.
type Gather struct {
	Results []Result
	Partial bool
	// Bound is the global Lemma-1 floor over the places a lost or partial
	// shard did not account for: min over failed shards' MinScore(MinDist)
	// and partial shards' reported bounds. Meaningful only when Partial.
	Bound float64
	// Degraded reports that at least one shard failed, was tripped, or
	// answered partially — the machine-readable reason strings are in
	// Shards.
	Degraded bool
	Shards   []Status
	// Stats sums the per-shard evaluation counters; its Partial and
	// ScoreBound fields carry the gather-level values.
	Stats ksp.Stats
}

// Config tunes the coordinator's resilience policy. Zero values select
// the documented defaults (DESIGN.md §14 policy table).
type Config struct {
	// AttemptTimeout bounds each shard call attempt. Default 2s.
	AttemptTimeout time.Duration
	// MaxAttempts bounds calls per shard per query, the first attempt
	// included. Default 3.
	MaxAttempts int
	// BackoffBase seeds the exponential retry backoff (doubling per
	// attempt, half-jittered). Default 25ms.
	BackoffBase time.Duration
	// BackoffMax caps the backoff. Default 500ms.
	BackoffMax time.Duration
	// HedgeAfter launches a second identical attempt when the first has
	// not answered after this long; first answer wins. 0 selects the
	// default 250ms, negative disables hedging.
	HedgeAfter time.Duration
	// BreakerThreshold opens a shard's breaker after that many
	// consecutive failures. Default 3.
	BreakerThreshold int
	// BreakerCooldown holds an open breaker before the half-open probe.
	// Default 2s.
	BreakerCooldown time.Duration
	// HealthInterval paces the background health checker. 0 selects the
	// default 2s, negative disables the checker.
	HealthInterval time.Duration
	// FanOut bounds concurrent shard calls per gather (a resource cap:
	// shards dispatch in ascending MinDist order and the next one waits
	// for a free slot). 0 leaves the gather uncapped. It is not what makes
	// the θ-prune effective — the head start of Search is.
	FanOut int
	// Seed fixes the retry-jitter sequence. Default 1.
	Seed int64
	// Rank must match the shards' ranking function; it converts a
	// shard's MinDist into a score floor. Default ProductRanking.
	Rank ksp.Ranking
}

func (cfg *Config) fill() {
	if cfg.AttemptTimeout <= 0 {
		cfg.AttemptTimeout = 2 * time.Second
	}
	if cfg.MaxAttempts < 1 {
		cfg.MaxAttempts = 3
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 500 * time.Millisecond
	}
	if cfg.HedgeAfter == 0 {
		cfg.HedgeAfter = 250 * time.Millisecond
	}
	if cfg.BreakerThreshold < 1 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 2 * time.Second
	}
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 2 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Rank == nil {
		cfg.Rank = ksp.ProductRanking{}
	}
}

// shardState pairs a shard with its breaker and lifetime counters.
type shardState struct {
	shard Shard
	br    *breaker

	mu      sync.Mutex
	calls   int64 // attempts issued
	oks     int64 // attempts that returned a response
	errs    int64 // attempts that failed
	retries int64 // attempts beyond the first, per query
	hedges  int64 // hedged second attempts launched
	lastErr string

	m *shardMetrics
}

// Coordinator fans kSP queries out to shards and merges the answers.
// Construct with New, stop the health checker with Close.
type Coordinator struct {
	shards []*shardState
	cfg    Config
	clock  func() time.Time

	rngMu sync.Mutex
	rng   *rand.Rand

	// gateWait observes how long gated tiles were held (EnableMetrics).
	gateWait atomic.Pointer[obs.Histogram]

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds a coordinator over the given shards and starts its
// background health checker (unless cfg.HealthInterval is negative).
// The caller must Close it to stop the checker.
func New(shards []Shard, cfg Config) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, errors.New("shard: coordinator needs at least one shard")
	}
	cfg.fill()
	c := &Coordinator{
		cfg:   cfg,
		clock: time.Now,
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	seen := make(map[string]bool, len(shards))
	for _, sh := range shards {
		if seen[sh.Name()] {
			return nil, fmt.Errorf("shard: duplicate shard name %q", sh.Name())
		}
		seen[sh.Name()] = true
		c.shards = append(c.shards, &shardState{
			shard: sh,
			br:    newBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, nil),
		})
	}
	if cfg.HealthInterval > 0 {
		go c.healthLoop()
	} else {
		close(c.done)
	}
	return c, nil
}

// Close stops the background health checker and waits for it to exit.
// The coordinator must not be used afterwards.
func (c *Coordinator) Close() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// healthLoop probes every shard each interval, driving the breakers:
// failed probes count like failed calls, and a successful probe of a
// tripped shard resets its breaker — recovery does not wait for query
// traffic to test the cooldown.
func (c *Coordinator) healthLoop() {
	defer close(c.done)
	t := time.NewTicker(c.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		for _, st := range c.shards {
			select {
			case <-c.stop:
				return
			default:
			}
			c.probe(st)
		}
	}
}

// probe runs one health check against one shard.
func (c *Coordinator) probe(st *shardState) {
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.AttemptTimeout)
	defer cancel()
	err := firePoint(PointPing)
	if err == nil {
		err = st.shard.Ping(ctx)
	}
	if err != nil {
		st.br.failure()
		st.noteErr(err)
		return
	}
	if state, _ := st.br.snapshot(); state != stateClosed {
		st.br.reset()
	}
}

// RetryAfter is the hint a front-end should hand clients alongside a
// degraded 503: the breaker cooldown, after which tripped shards take
// their half-open probe.
func (c *Coordinator) RetryAfter() time.Duration { return c.cfg.BreakerCooldown }

// Healthy counts shards whose breaker currently admits calls (closed or
// half-open) against the total — the /readyz quorum input.
func (c *Coordinator) Healthy() (up, total int) {
	for _, st := range c.shards {
		if state, _ := st.br.snapshot(); state != stateOpen {
			up++
		}
	}
	return up, len(c.shards)
}

// ShardInfo is one shard's lifetime summary (the /stats shard section
// and the bench harness's per-shard cells).
type ShardInfo struct {
	Name         string  `json:"name"`
	Breaker      string  `json:"breaker"`
	BreakerTrips int64   `json:"breakerTrips"`
	Calls        int64   `json:"calls"`
	OK           int64   `json:"ok"`
	Errors       int64   `json:"errors"`
	Retries      int64   `json:"retries"`
	Hedges       int64   `json:"hedges"`
	LastError    string  `json:"lastError,omitempty"`
	Places       int     `json:"places,omitempty"`
	MinX         float64 `json:"minX,omitempty"`
	MinY         float64 `json:"minY,omitempty"`
	MaxX         float64 `json:"maxX,omitempty"`
	MaxY         float64 `json:"maxY,omitempty"`
}

// Snapshot reports every shard's lifetime counters and breaker state.
func (c *Coordinator) Snapshot() []ShardInfo {
	out := make([]ShardInfo, 0, len(c.shards))
	for _, st := range c.shards {
		state, trips := st.br.snapshot()
		st.mu.Lock()
		info := ShardInfo{
			Name:         st.shard.Name(),
			Breaker:      state.String(),
			BreakerTrips: trips,
			Calls:        st.calls,
			OK:           st.oks,
			Errors:       st.errs,
			Retries:      st.retries,
			Hedges:       st.hedges,
			LastError:    st.lastErr,
		}
		st.mu.Unlock()
		if r, ok := st.shard.Bounds(); ok {
			info.MinX, info.MinY, info.MaxX, info.MaxY = r.MinX, r.MinY, r.MaxX, r.MaxY
		}
		if l, ok := st.shard.(*Local); ok {
			info.Places = l.Dataset().SpatialPlaces()
		}
		out = append(out, info)
	}
	return out
}

func (st *shardState) noteErr(err error) {
	st.mu.Lock()
	st.lastErr = err.Error()
	st.mu.Unlock()
}

// slot is one shard's per-gather scratch.
type slot struct {
	st        *shardState
	minDist   float64
	hasBounds bool
	status    Status
	resp      *Response
}

// livePublisher marks a shard that offers into Request.Bound while it
// evaluates (Local). Only such a shard can establish θ before it
// returns, so only such a shard is worth holding farther tiles back for.
type livePublisher interface{ publishesLive() }

// headStart is the dispatcher's gate (DESIGN.md §14.2): it keeps the
// tiles behind the nearest from running blind. Speculating before a
// threshold exists is what made every tile a full private top-k; once θ
// is established — or waiting for it stops being worthwhile — the rest
// run concurrently under the live shared θ. Owned by the dispatch loop.
type headStart struct {
	established <-chan struct{}
	delay       time.Duration
	timer       *time.Timer // armed by the first wait
	// liveDone receives one token per finished live-publishing call;
	// live counts those still in flight.
	liveDone chan struct{}
	live     int
	open     bool
}

// wait holds the next tile until the bound is established, no nearer
// live-publishing tile is still in flight, the delay has passed since
// the first wait, or ctx ends. It reports how long it held the tile, by
// the given clock, and whether it held it at all.
func (h *headStart) wait(ctx context.Context, now func() time.Time) (time.Duration, bool) {
	if h.open || h.live == 0 {
		return 0, false
	}
	start := now()
	if h.timer == nil {
		h.timer = time.NewTimer(h.delay)
	}
	for !h.open && h.live > 0 {
		select {
		case <-h.established:
			h.open = true
		case <-h.liveDone:
			h.live--
		case <-h.timer.C:
			h.open = true
		case <-ctx.Done():
			h.open = true
		}
	}
	return now().Sub(start), true
}

func (h *headStart) stop() {
	if h.timer != nil {
		h.timer.Stop()
	}
}

// Search fans req out and merges the per-shard answers. It returns
// ErrAllShardsFailed (with per-shard detail in the returned Gather)
// when no shard produced any response, and ctx.Err() when the caller
// gave up; every other degradation returns a sound partial Gather.
//
// The gather runs under one threshold: a fresh Bound travels to every
// shard in the request, Local tiles evaluate under it and publish into
// it as they go, and every completed response is offered into it as
// well, so Remote peers and partial answers tighten it too.
func (c *Coordinator) Search(ctx context.Context, req Request) (*Gather, error) {
	if req.K < 1 {
		return nil, &permanentError{err: errors.New("shard: K must be positive")}
	}
	tr := obs.TraceFromContext(ctx)
	var root *obs.Span
	if tr != nil {
		root = tr.Root()
	}
	span := root.Child("shard.gather")
	defer span.End()

	loc := ksp.Point{X: req.X, Y: req.Y}
	slots := make([]*slot, len(c.shards))
	for i, st := range c.shards {
		sl := &slot{st: st, status: Status{Shard: st.shard.Name()}}
		if r, ok := st.shard.Bounds(); ok {
			sl.minDist = r.MinDist(loc)
			sl.hasBounds = true
		}
		slots[i] = sl
	}
	// Dispatch in ascending MinDist order (ties by name, a total order
	// over the distinct shard names): the nearest tile is the likeliest
	// to hold the answer, so it gets the head start.
	slices.SortFunc(slots, func(a, b *slot) int {
		if a.minDist != b.minDist {
			return cmp.Compare(a.minDist, b.minDist)
		}
		return cmp.Compare(a.status.Shard, b.status.Shard)
	})
	for i, sl := range slots {
		sl.status.MinDist = sl.minDist
		sl.status.Order = i
	}

	// A traced gather asks every shard for its local span subtree and
	// hands it the gather's trace ID to join; the subtrees come back in
	// the responses and are grafted under the per-attempt spans.
	if tr != nil {
		req.Trace = true
		req.TraceID = tr.ID()
	}

	// Every offer is a genuine (place, score) pair — partial shards' too —
	// so the bound's θ only over-estimates the final threshold, and
	// neither a tile discarding places above it nor a MinScore(minDist) > θ
	// prune can drop a top-k member.
	bound := ksp.NewBound(req.K)
	req.Bound = bound

	// Divide the request's pipeline width across the shards this gather
	// will actually call: every shard runs the same exact algorithm, so
	// the width only changes speculative evaluation, and forwarding it
	// verbatim would multiply that speculative work (and the worker
	// count) by the shard count. Dividing keeps a sharded gather at the
	// same total worker budget as the single-engine search it replaces.
	if req.Parallel > 1 {
		dispatchable := 0
		for _, sl := range slots {
			if req.MaxDist > 0 && sl.hasBounds && sl.minDist > req.MaxDist {
				continue
			}
			dispatchable++
		}
		if dispatchable > 1 {
			if req.Parallel /= dispatchable; req.Parallel < 1 {
				req.Parallel = 1
			}
		}
	}

	fanOut := c.cfg.FanOut
	if fanOut <= 0 || fanOut > len(slots) {
		fanOut = len(slots)
	}
	sem := make(chan struct{}, fanOut)
	gate := headStart{
		established: bound.Established(),
		delay:       c.cfg.HedgeAfter,
		liveDone:    make(chan struct{}, len(slots)), // one send per slot at most
	}
	if gate.delay <= 0 {
		gate.delay = c.cfg.AttemptTimeout
	}
	defer gate.stop()
	var wg sync.WaitGroup
	for _, sl := range slots {
		if req.MaxDist > 0 && sl.hasBounds && sl.minDist > req.MaxDist {
			sl.status.State = StateSkipped
			continue
		}
		sem <- struct{}{} // dispatch-order admission: at most fanOut in flight
		if held, ok := gate.wait(ctx, c.clock); ok {
			sl.status.GatedMicros = held.Microseconds()
			c.gateWait.Load().Observe(held.Seconds())
		}
		th := bound.Theta()
		if !math.IsInf(th, 1) {
			sl.status.ThetaAtStart = th
		}
		// Strictly above θ, like every comparison against the shared
		// threshold: a place scoring exactly θ may still win the merge's
		// (score, place) tie-break, so its tile must be heard.
		if c.cfg.Rank.MinScore(sl.minDist) > th {
			sl.status.State = StatePruned
			<-sem
			continue
		}
		_, live := sl.st.shard.(livePublisher)
		if live {
			gate.live++
		}
		wg.Add(1)
		go func(sl *slot) {
			defer wg.Done()
			defer func() { <-sem }()
			c.callShard(ctx, sl, req, span)
			if sl.resp != nil {
				for _, r := range sl.resp.Results {
					bound.Offer(r.Place, r.Score)
				}
			}
			if live {
				gate.liveDone <- struct{}{}
			}
		}(sl)
	}
	wg.Wait()

	return c.merge(ctx, req, slots)
}

// merge assembles the Gather from the per-shard outcomes: global top-k
// by the engine's (score, place) order, the composed Lemma-1 floor, and
// per-shard statuses.
func (c *Coordinator) merge(ctx context.Context, req Request, slots []*slot) (*Gather, error) {
	g := &Gather{Shards: make([]Status, len(slots))}
	var merged []Result
	bound := math.Inf(1)
	responded := 0
	var firstErr error
	for i, sl := range slots {
		g.Shards[i] = sl.status
		switch sl.status.State {
		case StateOK:
			responded++
		case StatePartial:
			responded++
			g.Partial = true
			g.Degraded = true
			if sl.resp.Bound < bound {
				bound = sl.resp.Bound
			}
		case StateError, StateOpen:
			g.Degraded = true
			g.Partial = true
			// Every place of the lost shard sits at distance ≥ minDist
			// (0 when the MBR is unknown), so its scores are floored by
			// MinScore(minDist).
			if f := c.cfg.Rank.MinScore(sl.minDist); f < bound {
				bound = f
			}
			if firstErr == nil && sl.status.Error != "" {
				firstErr = errors.New(sl.status.Error)
			}
		}
		if sl.resp != nil {
			g.Stats.Add(&sl.resp.Stats)
			merged = append(merged, sl.resp.Results...)
		}
	}
	if responded == 0 && g.Degraded {
		if err := ctx.Err(); err != nil {
			return g, err
		}
		if firstErr != nil {
			return g, fmt.Errorf("%w: %v", ErrAllShardsFailed, firstErr)
		}
		return g, ErrAllShardsFailed
	}

	// (score, place) is a total order over the gathered results — no place
	// sits in two tiles — so the unstable sort is deterministic.
	slices.SortFunc(merged, func(a, b Result) int {
		if a.Score != b.Score {
			return cmp.Compare(a.Score, b.Score)
		}
		return cmp.Compare(a.Place, b.Place)
	})
	if len(merged) > req.K {
		merged = merged[:req.K]
	}
	for i := range merged {
		merged[i].Exact = !g.Partial || merged[i].Score < bound
	}
	g.Results = merged
	if g.Partial {
		g.Bound = bound
		g.Stats.Partial = true
		g.Stats.ScoreBound = bound
	} else {
		g.Stats.Partial = false
		g.Stats.ScoreBound = 0
	}
	return g, nil
}

// callShard runs the full resilience ladder for one shard: breaker
// admission, up to MaxAttempts attempts with jittered exponential
// backoff, each attempt deadline-bounded and hedged once if it
// straggles. It fills sl.status and sl.resp.
func (c *Coordinator) callShard(ctx context.Context, sl *slot, req Request, parent *obs.Span) {
	st := sl.st
	span := parent.Child("shard.call")
	span.SetStr("shard", st.shard.Name())
	defer span.End()
	brState, _ := st.br.snapshot()
	sl.status.Breaker = brState.String()
	start := c.clock()
	defer func() {
		sl.status.Micros = c.clock().Sub(start).Microseconds()
		span.SetStr("state", sl.status.State)
	}()

	var lastErr error
	for attempt := 1; attempt <= c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			lastErr = err
			break
		}
		if !st.br.allow() {
			if attempt == 1 {
				sl.status.State = StateOpen
				sl.status.Error = "circuit breaker open"
				return
			}
			lastErr = errors.New("circuit breaker opened mid-retry")
			break
		}
		if attempt > 1 {
			st.bump(&st.retries)
			st.metrics().noteRetry()
		}
		sl.status.Attempts = attempt
		resp, hedged, err := c.attempt(ctx, st, req, span, attempt)
		if hedged {
			sl.status.Hedged = true
		}
		if err == nil {
			st.br.success()
			sl.resp = resp
			if resp.Partial {
				sl.status.State = StatePartial
			} else {
				sl.status.State = StateOK
			}
			return
		}
		st.br.failure()
		st.noteErr(err)
		lastErr = err
		if permanent(err) {
			break
		}
		if attempt < c.cfg.MaxAttempts && !c.sleep(ctx, c.backoff(attempt)) {
			break
		}
	}
	sl.status.State = StateError
	if lastErr != nil {
		sl.status.Error = lastErr.Error()
	}
}

// attempt issues one (possibly hedged) call. The first answer wins; the
// loser is cancelled through the shared attempt context and drains into
// the buffered channel, so nothing leaks.
//
// Tracing: each launched call gets its own "shard.attempt" span under
// the shard.call span (kind=primary|hedge, the retry ladder's attempt
// number). The span that produced the returned response is marked
// won=true and — alone — receives the shard's remote subtree, so a
// stitched tree names the winning attempt and a losing hedge's subtree
// is never duplicated into the gather (a loser that completes after the
// winner returned drains unread; its span stays, unmarked).
func (c *Coordinator) attempt(ctx context.Context, st *shardState, req Request, parent *obs.Span, attemptNo int) (*Response, bool, error) {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	type res struct {
		r    *Response
		err  error
		span *obs.Span
	}
	ch := make(chan res, 2)
	run := func(kind string) {
		sp := parent.Child("shard.attempt")
		sp.SetInt("attempt", int64(attemptNo))
		sp.SetStr("kind", kind)
		r, err := c.invoke(actx, st, req)
		if err != nil {
			sp.SetStr("error", err.Error())
		}
		sp.End()
		ch <- res{r, err, sp}
	}
	go run("primary")
	var hedgeC <-chan time.Time
	if c.cfg.HedgeAfter > 0 {
		t := time.NewTimer(c.cfg.HedgeAfter)
		defer t.Stop()
		hedgeC = t.C
	}
	hedged := false
	var firstErr error
	pending := 1
	for pending > 0 {
		select {
		case r := <-ch:
			pending--
			if r.err == nil {
				r.span.SetStr("won", "true")
				r.span.AttachRemote(r.r.Trace)
				return r.r, hedged, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
		case <-hedgeC:
			hedgeC = nil
			hedged = true
			st.bump(&st.hedges)
			st.metrics().noteHedge()
			pending++
			go run("hedge")
		case <-actx.Done():
			// A stalled call (e.g. an injected Stall) may outlive the
			// attempt deadline; it drains into the buffered channel.
			return nil, hedged, actx.Err()
		}
	}
	return nil, hedged, firstErr
}

// invoke is one raw shard call: the fault-injection wrapper, the call
// itself, and the injected-truncation hook on success.
func (c *Coordinator) invoke(ctx context.Context, st *shardState, req Request) (resp *Response, err error) {
	st.bump(&st.calls)
	start := c.clock()
	defer func() {
		if err != nil {
			st.bump(&st.errs)
		} else {
			st.bump(&st.oks)
		}
		st.metrics().noteCall(err == nil, c.clock().Sub(start))
	}()
	if err := firePoint(PointCall); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		// An injected Stall may have consumed the whole attempt budget.
		return nil, err
	}
	resp, err = st.shard.Search(ctx, req)
	if err != nil {
		return nil, err
	}
	maybeTruncate(resp)
	return resp, nil
}

func (st *shardState) bump(f *int64) {
	st.mu.Lock()
	*f++
	st.mu.Unlock()
}

// backoff returns the jittered exponential delay before retry attempt+1:
// base·2^(attempt-1) capped at max, then uniformly jittered over
// [d/2, d). The jitter desynchronizes retry storms across concurrent
// gathers; it never influences results, only timing.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.cfg.BackoffBase << uint(attempt-1)
	if d > c.cfg.BackoffMax || d <= 0 {
		d = c.cfg.BackoffMax
	}
	c.rngMu.Lock()
	j := c.rng.Int63n(int64(d/2) + 1)
	c.rngMu.Unlock()
	return d/2 + time.Duration(j)
}

// sleep waits d or until ctx cancels; false means the caller should
// stop retrying.
func (c *Coordinator) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
