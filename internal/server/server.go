// Package server exposes a dataset over HTTP with a small JSON API — the
// deployment shape a location-based RDF search service actually ships
// with (cf. the paper's motivating applications: hospital finders, site
// scouting, location-aware journalism).
//
// A light /search is mostly fixed cost, so the shell around the engine
// is kept lean: the query string is parsed once, in one pass over
// RawQuery that the trace and explain checks share, and the response is
// appended into a pooled buffer and written once, byte for byte what
// encoding/json would write (responses carrying traces, EXPLAIN, shard
// statuses or trees still go through encoding/json).
//
// Endpoints:
//
//	GET /search?x=…&y=…&kw=a,b,c&k=5[&algo=SP][&trees=1][&trace=1][&explain=1]
//	GET /describe?uri=…
//	GET /stats
//	GET /metrics        (Prometheus text exposition)
//	GET /debug/queries  (ring buffer of recent queries, newest first)
//	GET /debug/slow     (wide events of recent slow queries, when enabled)
//	GET /healthz  (liveness: the process serves)
//	GET /readyz   (readiness: the dataset answers queries)
//
// Search requests pass an admission controller that bounds the number
// of concurrent searches; excess load is shed with 429 (queue full) or
// 503 (queue wait expired), both carrying Retry-After. A query that hits
// its deadline mid-evaluation returns 200 with "partial": true and
// per-result exactness flags rather than failing.
//
// Every request gets a request ID (client-supplied X-Request-ID or
// generated), echoed in the response header, threaded through the
// request context, and attached to structured logs. ?trace=1 on /search
// additionally records a span tree of the evaluation and returns it in
// the response (?trace=perfetto renders the same capture as Chrome
// trace_event JSON); on sharded servers the tree is stitched across
// shards, each remote subtree grafted under the call that won it.
// ?explain=1 attaches the structured plan + execution profile without
// span capture, and EnableSlowLog turns on the wide-event slow-query
// log behind /debug/slow.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ksp"
	"ksp/internal/faultinject"
	"ksp/internal/obs"
	"ksp/internal/shard"
)

// PointSearchAdmitted fires after a /search request clears admission
// control, while it still holds its admission slot — stalling here
// keeps the semaphore occupied, which is how the overload tests
// saturate it.
var PointSearchAdmitted = faultinject.Register("server.search.admitted")

// Server handles kSP queries over one dataset.
type Server struct {
	ds  *ksp.Dataset
	mux *http.ServeMux
	// MaxK caps the requested k to bound per-request work.
	MaxK int
	// Timeout bounds each query's evaluation.
	Timeout time.Duration
	// DefaultParallel is read by nothing: every query evaluates
	// serially.
	//
	// Deprecated: kept only because the benchmark harness
	// (benchmark/serve.go:100) still assigns it; delete it with that line.
	DefaultParallel int

	// AdmitCapacity is the number of concurrent searches admitted at
	// once. 0 selects 2×GOMAXPROCS; negative disables admission control.
	AdmitCapacity int
	// AdmitQueue bounds how many requests may wait for admission; beyond
	// it requests shed immediately with 429. 0 selects 16; negative
	// disables queueing (full capacity → immediate 429).
	AdmitQueue int
	// QueueTimeout bounds how long a queued request waits before shedding
	// with 503. 0 selects 1s.
	QueueTimeout time.Duration
	// ReadyTimeout bounds the /readyz self-check query. 0 selects 250ms.
	ReadyTimeout time.Duration
	// Logger receives structured request, query, and panic logs; nil
	// selects slog.Default(). Access logs are emitted at Debug so the
	// default Info level stays quiet under normal traffic.
	Logger *slog.Logger
	// Shards, when non-nil, switches /search to scatter-gather
	// evaluation through the coordinator instead of the single local
	// engine; /readyz gains per-shard health with a majority quorum and
	// /stats a per-shard section. Set it after New, before serving. The
	// caller owns the coordinator's lifetime (Close after shutdown).
	Shards *shard.Coordinator

	admOnce sync.Once
	adm     *admission
	admPtr  atomic.Pointer[admission]
	panics  atomic.Uint64
	ready   atomic.Bool

	reg  *obs.Registry
	ring *obs.QueryRing
	sm   *serverMetrics
	slow *obs.SlowLog
}

// New returns a ready handler for the dataset. It builds the server's
// metrics registry (engine, HTTP, admission, and runtime instruments)
// and the /debug/queries ring buffer.
func New(ds *ksp.Dataset) *Server {
	s := &Server{
		ds:      ds,
		mux:     http.NewServeMux(),
		MaxK:    100,
		Timeout: 10 * time.Second,
		reg:     obs.NewRegistry(),
		ring:    obs.NewQueryRing(64),
	}
	s.ready.Store(true)
	ds.EnableMetrics(s.reg)
	obs.RegisterRuntimeMetrics(s.reg)
	s.registerMetrics(s.reg)
	s.mux.HandleFunc("/stats", s.handleStats)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/debug/queries", s.handleDebugQueries)
	s.mux.HandleFunc("/debug/slow", s.handleDebugSlow)
	s.mux.HandleFunc("/healthz", s.handleHealth)
	s.mux.HandleFunc("/readyz", s.handleReady)
	return s
}

// EnableSlowLog turns on the wide-event slow-query log: every query
// emits one structured record, and records slower than threshold are
// retained in a ring of n entries (served at /debug/slow) and logged at
// Warn. A threshold <= 0 retains every query. Call before serving; a
// server without the log pays nothing per query (the record is never
// built).
func (s *Server) EnableSlowLog(n int, threshold time.Duration) {
	s.slow = obs.NewSlowLog(n, threshold, s.log())
}

// ServeHTTP implements http.Handler. The wrapper owns the cross-cutting
// concerns: request-ID assignment, trace setup, per-path metrics,
// access logging, and panic containment — a panic anywhere below fails
// the request with 500 while the process keeps serving.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rid := r.Header.Get("X-Request-ID")
	if rid == "" {
		rid = obs.NewRequestID()
	}
	ctx := obs.ContextWithRequestID(r.Context(), rid)
	params := parseQueryParams(r.URL.RawQuery)
	// Span capture turns on for ?trace= requests and for requests whose
	// traceparent header carries the sampled flag — that is how a shard
	// joins its coordinator's trace. A valid traceparent also donates its
	// trace ID, so both sides' trees correlate when stitched.
	joined, sampled := "", false
	if tp := r.Header.Get(obs.TraceparentHeader); tp != "" {
		if id, _, sam, ok := obs.ParseTraceparent(tp); ok {
			joined, sampled = id, sam
		}
	}
	if params.traceMode() != traceOff || sampled {
		t := obs.NewTrace(r.URL.Path)
		if joined != "" {
			t.SetID(joined)
		}
		ctx = obs.ContextWithTrace(ctx, t)
	}
	r = r.WithContext(ctx)
	w.Header().Set("X-Request-ID", rid)
	sw := &statusWriter{ResponseWriter: w}
	defer func() {
		if rec := recover(); rec != nil {
			s.panics.Add(1)
			s.log().Error("panic serving request",
				"requestID", rid, "method", r.Method, "path", r.URL.Path,
				"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
			// Headers may already be out; WriteHeader then just logs a
			// superfluous-call warning instead of corrupting the stream.
			s.fail(sw, http.StatusInternalServerError, "internal error")
		}
		dur := time.Since(start)
		s.sm.noteRequest(r.URL.Path, dur)
		// Guarded: the default Info level drops the record, and building
		// it boxes every argument.
		if lg := s.log(); lg.Enabled(ctx, slog.LevelDebug) {
			lg.Debug("request",
				"requestID", rid, "method", r.Method, "path", r.URL.Path,
				"status", sw.status(), "durationMicros", dur.Microseconds())
		}
	}()
	// The endpoints that read parameters take those parsed above. They are
	// not on the mux, which would only find them under these exact paths
	// too.
	switch r.URL.Path {
	case "/search":
		s.handleSearch(sw, r, &params)
	case "/keyword":
		s.handleKeyword(sw, r, &params)
	case "/nearest":
		s.handleNearest(sw, r, &params)
	case "/describe":
		s.handleDescribe(sw, r, &params)
	default:
		s.mux.ServeHTTP(sw, r)
	}
}

// SetReady flips /readyz; the server flips it off while draining during
// shutdown so load balancers stop routing here before in-flight
// requests finish.
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// PanicsRecovered reports how many request handlers have panicked and
// been contained since the server started.
func (s *Server) PanicsRecovered() uint64 { return s.panics.Load() }

// admission lazily builds the controller from the exported knobs, which
// callers set after New; the first admitted request freezes them.
// It returns nil when AdmitCapacity is negative (admission disabled).
func (s *Server) admission() *admission {
	s.admOnce.Do(func() {
		if s.AdmitCapacity < 0 {
			return
		}
		capacity := s.AdmitCapacity
		if capacity == 0 {
			capacity = 2 * runtime.GOMAXPROCS(0)
			if capacity < 2 {
				capacity = 2
			}
		}
		queue := s.AdmitQueue
		switch {
		case queue == 0:
			queue = 16
		case queue < 0:
			queue = 0
		}
		s.adm = newAdmission(capacity, queue)
		// Metric closures read through admPtr: they must not force
		// construction (a scrape would freeze half-configured knobs).
		s.admPtr.Store(s.adm)
	})
	return s.adm
}

func (s *Server) queueTimeout() time.Duration {
	if s.QueueTimeout > 0 {
		return s.QueueTimeout
	}
	return time.Second
}

// admit passes the request through admission control. It returns the
// release the handler must defer, or ok=false after writing the
// shedding response (or nothing, for a vanished client).
func (s *Server) admit(w http.ResponseWriter, r *http.Request) (release func(), ok bool) {
	adm := s.admission()
	if adm == nil {
		return func() {}, true
	}
	wait := s.queueTimeout()
	release, status := adm.acquire(r.Context().Done(), wait)
	switch status {
	case admitOK:
		return release, true
	case admitBusy:
		s.shed(w, http.StatusTooManyRequests, wait, "server is at capacity and the wait queue is full")
	case admitTimeout:
		s.shed(w, http.StatusServiceUnavailable, wait, "server is at capacity; queued %v without admission", wait)
	case admitGone:
		// Client disconnected while queued; nobody reads a response.
	}
	return nil, false
}

// shed writes a load-shedding error with a Retry-After hint derived
// from the queue timeout (rounded up to a whole second, at least 1).
func (s *Server) shed(w http.ResponseWriter, code int, wait time.Duration, format string, args ...interface{}) {
	retry := int(math.Ceil(wait.Seconds()))
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	s.fail(w, code, format, args...)
}

// SearchResponse is the /search payload. Partial marks a response whose
// evaluation stopped early (deadline or cancellation): Results is the
// best-so-far top-k, each result flagged Exact when it provably belongs
// to the exact answer, and ScoreLowerBound bounds every unreported
// place's score from below.
type SearchResponse struct {
	Results         []shard.Result `json:"results"`
	Partial         bool           `json:"partial,omitempty"`
	ScoreLowerBound float64        `json:"scoreLowerBound,omitempty"`
	// Degraded and Shards appear on scatter-gather responses: Degraded
	// marks an answer that lost at least one shard (or got only a
	// partial from one), and Shards carries the per-shard outcome
	// detail, error strings included.
	Degraded bool           `json:"degraded,omitempty"`
	Shards   []shard.Status `json:"shards,omitempty"`
	Stats    QueryStats     `json:"stats"`
	// Trace is the evaluation's span tree, present when the request
	// carried ?trace=1; on sharded gathers it is the stitched cross-shard
	// tree. Perfetto carries the same capture in Chrome trace_event form
	// instead when the request asked ?trace=perfetto.
	Trace    *obs.SpanJSON      `json:"trace,omitempty"`
	Perfetto *obs.PerfettoTrace `json:"perfetto,omitempty"`
	// Explain is the structured plan + execution profile, present when
	// the request carried ?explain=1. Unlike tracing it involves no span
	// capture, so it is cheap enough for routine use.
	Explain *ksp.ExplainReport `json:"explain,omitempty"`
}

// QueryStats summarizes the evaluation cost. Micros is the precise
// latency (the same number the latency histogram observes, in seconds);
// Millis survives for clients written against the older payload.
type QueryStats struct {
	Algorithm         string `json:"algorithm"`
	Millis            int64  `json:"millis"`
	Micros            int64  `json:"micros"`
	TQSPComputations  int64  `json:"tqspComputations"`
	RTreeNodeAccesses int64  `json:"rtreeNodeAccesses"`
	TimedOut          bool   `json:"timedOut"`
	Cancelled         bool   `json:"cancelled,omitempty"`
}

// queryStats builds the response's QueryStats from one evaluation's
// counters. d is the latency to report: the engine's own total on the
// local path, the gather's wall clock on the sharded one.
func queryStats(algo ksp.Algorithm, d time.Duration, st *ksp.Stats) QueryStats {
	return QueryStats{
		Algorithm:         algo.String(),
		Millis:            d.Milliseconds(),
		Micros:            d.Microseconds(),
		TQSPComputations:  st.TQSPComputations,
		RTreeNodeAccesses: st.RTreeNodeAccesses,
		TimedOut:          st.TimedOut,
		Cancelled:         st.Cancelled,
	}
}

type apiError struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, code int, format string, args ...interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	if err := json.NewEncoder(w).Encode(apiError{Error: fmt.Sprintf(format, args...)}); err != nil {
		s.log().Debug("error response encode failed", "err", err)
	}
}

// writeJSON encodes v into the response. An encode failure means the
// client went away mid-body (headers are already out), so it is logged
// rather than turned into a second response.
func (s *Server) writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log().Debug("response encode failed", "err", err)
	}
}

// parseCoord parses a query coordinate, rejecting non-finite values —
// NaN and ±Inf poison R-tree distance ordering, so they are a client
// error, not a query.
func parseCoord(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return 0, false
	}
	return f, true
}

// handleSearch serves /search from the request's parameters p. The two
// serving modes differ in two steps only: the evaluation — the local
// engine (evaluate), whose answer is a gather of one tile, or the shard
// coordinator (gather) — and the mapping of a failed evaluation to a
// status (evaluateFailed, gatherFailed). The query record, the 499 for a
// vanished client, the wide event, the trace, EXPLAIN and the response
// are the same code for both.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request, p *queryParams) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	x, okX := parseCoord(p.x)
	y, okY := parseCoord(p.y)
	if !okX || !okY {
		s.fail(w, http.StatusBadRequest, "x and y must be finite numbers")
		return
	}
	kws := splitKeywords(p.kw)
	if len(kws) == 0 {
		s.fail(w, http.StatusBadRequest, "kw is required (comma-separated keywords)")
		return
	}
	k := 5
	if ks := p.k; ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil || k < 1 {
			s.fail(w, http.StatusBadRequest, "k must be a positive integer")
			return
		}
	}
	if k > s.MaxK {
		k = s.MaxK
	}
	algo := ksp.AlgoSP
	if a := p.algo; a != "" {
		var ok bool
		if algo, ok = ksp.ParseAlgorithm(a); !ok {
			s.fail(w, http.StatusBadRequest, "algo must be one of BSP, SPP, SP, TA")
			return
		}
	}
	trees := p.trees == "1" || p.trees == "true"
	var maxDist float64
	if ms := p.maxdist; ms != "" {
		var ok bool
		if maxDist, ok = parseCoord(ms); !ok || maxDist <= 0 {
			s.fail(w, http.StatusBadRequest, "maxdist must be a positive finite number")
			return
		}
	}

	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	faultinject.Fire(PointSearchAdmitted)

	req := shard.Request{
		X: x, Y: y, Keywords: kws, K: k, Algo: algo,
		MaxDist: maxDist, CollectTrees: trees,
	}
	tr := obs.TraceFromContext(r.Context())
	rec := obs.QueryRecord{
		ID:       obs.RequestIDFromContext(r.Context()),
		Endpoint: "/search",
		Algo:     algo.String(),
		Keywords: strings.Join(kws, ","),
		K:        k,
	}
	var g shard.Gather
	var elapsed time.Duration
	var err error
	if s.Shards != nil {
		g, elapsed, err = s.gather(r, req)
	} else {
		g, elapsed, err = s.evaluate(r, req)
	}
	rec.DurationMicros = elapsed.Microseconds()
	if err != nil {
		rec.Error = err.Error()
	} else {
		rec.Partial = g.Partial
	}
	if tr != nil {
		tr.Finish()
		rec.Trace = tr.JSON()
	}
	degraded := ""
	switch {
	case r.Context().Err() != nil:
		rec.Status = 499 // client closed request; nobody reads a response
		s.recordQuery(rec)
		return
	case err != nil:
		if s.Shards != nil {
			rec.Status, degraded = s.gatherFailed(w, err, g.Shards)
		} else {
			rec.Status = s.evaluateFailed(w, err)
		}
		s.recordQuery(rec)
		s.noteWide(rec, tr.ID(), maxDist, &g.Stats, 0, degraded, g.Shards)
		return
	}
	if g.Partial {
		s.sm.notePartial()
	}
	rec.Status = http.StatusOK
	s.recordQuery(rec)
	if g.Degraded {
		degraded = DegradedShardLoss
	}
	s.noteWide(rec, tr.ID(), maxDist, &g.Stats, len(g.Results), degraded, g.Shards)

	resp := SearchResponse{
		Results:  g.Results,
		Partial:  g.Partial,
		Degraded: g.Degraded,
		Shards:   g.Shards,
		Stats:    queryStats(algo, elapsed, &g.Stats),
	}
	if resp.Results == nil {
		resp.Results = []shard.Result{} // an empty answer encodes as []
	}
	if g.Partial {
		resp.ScoreLowerBound = g.Bound
	}
	switch {
	case tr != nil && p.traceMode() == tracePerfetto:
		resp.Perfetto = obs.PerfettoFromSpan(rec.Trace)
	case tr != nil:
		resp.Trace = rec.Trace
	}
	if p.wantExplain() {
		// The plan comes from the local engine's configuration, which
		// shards over the same dataset build share; a gather adds its
		// MinDist-ordered dispatch table.
		resp.Explain = s.ds.ExplainFor(algo, req.Query(),
			ksp.Options{CollectTrees: trees, MaxDist: maxDist}, &g.Stats, len(g.Results))
		resp.Explain.Shards = explainShards(g.Shards)
	}
	s.writeSearch(w, &resp)
}

// evaluate runs req on the server's own engine, cancelled when the
// client disconnects. It returns the answer as a gather of one tile
// (its counters set even on an error) and the engine's own total time.
// A panic the engine contained is counted and logged here, whether or
// not the client is still there to be told.
func (s *Server) evaluate(r *http.Request, req shard.Request) (shard.Gather, time.Duration, error) {
	res, stats, err := s.ds.SearchWith(req.Algo, req.Query(), ksp.Options{
		CollectTrees: req.CollectTrees,
		Deadline:     s.Timeout,
		MaxDist:      req.MaxDist,
		Trace:        obs.TraceFromContext(r.Context()),
		// A disconnected client must not keep burning the Timeout budget.
		Cancel: r.Context().Done(),
	})
	g := shard.Gather{Partial: stats.Partial, Bound: stats.ScoreBound, Stats: *stats}
	if err == nil {
		g.Results = shard.ResultsFrom(s.ds, res)
	} else if pe := (*ksp.PanicError)(nil); errors.As(err, &pe) {
		s.panics.Add(1)
		s.log().Error("query panic",
			"requestID", obs.RequestIDFromContext(r.Context()), "op", pe.Op,
			"panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
	}
	return g, stats.TotalTime(), err
}

// evaluateFailed writes the response for a failed local evaluation and
// returns its status: 500 for a contained engine panic (the process and
// the dataset keep serving), 400 for a coordinate the engine refused,
// 422 for a query it cannot answer.
func (s *Server) evaluateFailed(w http.ResponseWriter, err error) int {
	var pe *ksp.PanicError
	switch {
	case errors.As(err, &pe):
		s.fail(w, http.StatusInternalServerError, "internal error evaluating query")
		return http.StatusInternalServerError
	case errors.Is(err, ksp.ErrBadCoordinate):
		s.fail(w, http.StatusBadRequest, "%v", err)
		return http.StatusBadRequest
	}
	s.fail(w, http.StatusUnprocessableEntity, "%v", err)
	return http.StatusUnprocessableEntity
}

// splitKeywords splits a kw parameter at commas, dropping blank entries.
func splitKeywords(kw string) []string {
	var kws []string
	for _, part := range strings.Split(kw, ",") {
		if p := strings.TrimSpace(part); p != "" {
			kws = append(kws, p)
		}
	}
	return kws
}

// handleKeyword serves location-free keyword search: the places with the
// tightest semantic trees regardless of where the client is.
func (s *Server) handleKeyword(w http.ResponseWriter, r *http.Request, p *queryParams) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	kws := splitKeywords(p.kw)
	if len(kws) == 0 {
		s.fail(w, http.StatusBadRequest, "kw is required")
		return
	}
	k := 5
	if ks := p.k; ks != "" {
		var err error
		if k, err = strconv.Atoi(ks); err != nil || k < 1 {
			s.fail(w, http.StatusBadRequest, "k must be a positive integer")
			return
		}
	}
	if k > s.MaxK {
		k = s.MaxK
	}
	// Keyword search is always serial; it weighs one unit.
	release, admitted := s.admit(w, r)
	if !admitted {
		return
	}
	defer release()
	rec := obs.QueryRecord{
		ID:       obs.RequestIDFromContext(r.Context()),
		Endpoint: "/keyword",
		Algo:     "keyword",
		Keywords: strings.Join(kws, ","),
		K:        k,
	}
	begin := time.Now()
	res, err := s.ds.KeywordSearch(kws, k)
	rec.DurationMicros = time.Since(begin).Microseconds()
	if err != nil {
		rec.Error = err.Error()
		var pe *ksp.PanicError
		if errors.As(err, &pe) {
			s.panics.Add(1)
			s.log().Error("query panic",
				"requestID", rec.ID, "op", pe.Op,
				"panic", fmt.Sprint(pe.Value), "stack", string(pe.Stack))
			rec.Status = http.StatusInternalServerError
			s.recordQuery(rec)
			s.fail(w, http.StatusInternalServerError, "internal error evaluating query")
			return
		}
		rec.Status = http.StatusUnprocessableEntity
		s.recordQuery(rec)
		s.fail(w, http.StatusUnprocessableEntity, "%v", err)
		return
	}
	rec.Status = http.StatusOK
	s.recordQuery(rec)
	out := make([]shard.Result, 0, len(res))
	for _, item := range res {
		loc, _ := s.ds.Location(item.Place)
		out = append(out, shard.Result{
			URI:       s.ds.URI(item.Place),
			Score:     item.Score,
			Looseness: item.Looseness,
			X:         loc.X,
			Y:         loc.Y,
			Exact:     item.Exact,
		})
	}
	s.writeSearch(w, &SearchResponse{Results: out, Stats: QueryStats{Algorithm: "keyword"}})
}

// handleNearest serves plain nearest-place lookup.
func (s *Server) handleNearest(w http.ResponseWriter, r *http.Request, p *queryParams) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	x, okX := parseCoord(p.x)
	y, okY := parseCoord(p.y)
	if !okX || !okY {
		s.fail(w, http.StatusBadRequest, "x and y must be finite numbers")
		return
	}
	n := 5
	if ns := p.n; ns != "" {
		var err error
		if n, err = strconv.Atoi(ns); err != nil || n < 1 {
			s.fail(w, http.StatusBadRequest, "n must be a positive integer")
			return
		}
	}
	if n > s.MaxK {
		n = s.MaxK
	}
	res := s.ds.NearestPlaces(ksp.Point{X: x, Y: y}, n)
	out := make([]shard.Result, 0, len(res))
	for _, item := range res {
		loc, _ := s.ds.Location(item.Place)
		out = append(out, shard.Result{
			URI:      s.ds.URI(item.Place),
			Distance: item.Dist,
			X:        loc.X,
			Y:        loc.Y,
			Exact:    true,
		})
	}
	s.writeSearch(w, &SearchResponse{Results: out, Stats: QueryStats{Algorithm: "nearest"}})
}

// DescribeResponse is the /describe payload.
type DescribeResponse struct {
	URI     string   `json:"uri"`
	Terms   []string `json:"terms"`
	IsPlace bool     `json:"isPlace"`
	X       float64  `json:"x,omitempty"`
	Y       float64  `json:"y,omitempty"`
}

func (s *Server) handleDescribe(w http.ResponseWriter, r *http.Request, p *queryParams) {
	if r.Method != http.MethodGet {
		s.fail(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	uri := p.uri
	if uri == "" {
		s.fail(w, http.StatusBadRequest, "uri is required")
		return
	}
	v, ok := s.ds.VertexByURI(uri)
	if !ok {
		s.fail(w, http.StatusNotFound, "unknown entity %q", uri)
		return
	}
	resp := DescribeResponse{URI: uri, Terms: s.ds.Describe(v)}
	if loc, isPlace := s.ds.Location(v); isPlace {
		resp.IsPlace = true
		resp.X, resp.Y = loc.X, loc.Y
	}
	s.writeJSON(w, resp)
}

// StatsResponse is the /stats payload. Each section is its own named
// object, populated independently of the others: the dataset summary is
// always present, optional subsystems (admission, slow log) appear only
// once in use, and the metrics snapshot mirrors what /metrics exports.
type StatsResponse struct {
	Dataset ksp.DatasetStats `json:"dataset"`
	// Bounds is the dataset's place MBR; peer coordinators read it to
	// enable shard distance pruning. Absent on empty datasets.
	Bounds    *BoundsSection    `json:"bounds,omitempty"`
	Admission *AdmissionSection `json:"admission,omitempty"`
	// Slow reports the slow-query log when it is enabled.
	Slow           *SlowSection   `json:"slow,omitempty"`
	FaultInjection FaultSection   `json:"faultInjection"`
	Runtime        RuntimeSection `json:"runtime"`
	Server         ServerSection  `json:"server"`
	// Shards reports per-shard lifetime counters and breaker states on
	// scatter-gather servers.
	Shards  []shard.ShardInfo `json:"shards,omitempty"`
	Metrics []ksp.MetricPoint `json:"metrics,omitempty"`
}

// FaultSection reports the fault-injection framework: whether a plan is
// active and which points this build registers (empty without the
// faultinject tag).
type FaultSection struct {
	Active bool     `json:"active"`
	Points []string `json:"points"`
}

// RuntimeSection reports process-level health numbers.
type RuntimeSection struct {
	Goroutines     int    `json:"goroutines"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	HeapAllocBytes uint64 `json:"heapAllocBytes"`
	HeapObjects    uint64 `json:"heapObjects"`
	GCCycles       uint32 `json:"gcCycles"`
}

// ServerSection reports the HTTP layer itself.
type ServerSection struct {
	Ready           bool   `json:"ready"`
	PanicsRecovered uint64 `json:"panicsRecovered"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	resp := StatsResponse{
		Dataset: s.ds.Stats(),
		Bounds:  boundsSection(s.ds),
		FaultInjection: FaultSection{
			Active: faultinject.Enabled(),
			Points: faultinject.Points(),
		},
		Runtime: RuntimeSection{
			Goroutines:     runtime.NumGoroutine(),
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			HeapAllocBytes: ms.HeapAlloc,
			HeapObjects:    ms.HeapObjects,
			GCCycles:       ms.NumGC,
		},
		Server: ServerSection{
			Ready:           s.ready.Load(),
			PanicsRecovered: s.panics.Load(),
		},
	}
	if adm := s.admission(); adm != nil {
		sec := adm.snapshot()
		resp.Admission = &sec
	}
	if s.slow.Enabled() {
		resp.Slow = &SlowSection{
			ThresholdMicros: s.slow.Threshold().Microseconds(),
			Observed:        s.slow.ObservedTotal(),
			Slow:            s.slow.SlowTotal(),
		}
	}
	if s.Shards != nil {
		resp.Shards = s.Shards.Snapshot()
	}
	if s.reg != nil {
		resp.Metrics = s.reg.Snapshot()
	}
	s.writeJSON(w, resp)
}

// handleHealth is pure liveness: the process is up and serving HTTP.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReady is readiness: the server is accepting work (not draining)
// AND the dataset answers a trivial spatial query under a short
// deadline. Load balancers poll this; liveness stays on /healthz.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		s.fail(w, http.StatusServiceUnavailable, "draining")
		return
	}
	timeout := s.ReadyTimeout
	if timeout <= 0 {
		timeout = 250 * time.Millisecond
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		defer func() { recover() }() // a panicking self-check is "not ready", not a crash
		s.ds.NearestPlaces(ksp.Point{}, 1)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		s.fail(w, http.StatusServiceUnavailable, "self-check query exceeded %v", timeout)
		return
	}
	// Sharded servers add the per-shard quorum: the local self-check
	// proves this process serves, the quorum proves enough shards answer
	// to make routing traffic here worthwhile.
	if s.Shards != nil {
		s.readySharded(w)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}
