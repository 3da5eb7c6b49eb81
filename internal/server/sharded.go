package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ksp"
	"ksp/internal/obs"
	"ksp/internal/shard"
)

// Scatter-gather /search: when Server.Shards is set, admitted search
// requests evaluate through the coordinator instead of the single local
// engine. The response shape is the same SearchResponse — clients need
// not know whether one engine or seven answered — extended with the
// Degraded flag and the per-shard Status list. Failure modes:
//
//   - every shard failed → 503 with Retry-After (the breaker cooldown)
//     and a machine-readable degradedError body naming each shard's
//     error;
//   - some shards failed → 200 with partial=true, degraded=true, a
//     Lemma-1-sound scoreLowerBound, and per-result exact flags;
//   - client disconnected → no response (status 499 in the query log).

// AttachShards switches /search to scatter-gather through c and wires
// the coordinator's per-shard instruments into the server's /metrics
// registry. Call after New, before serving; the caller keeps ownership
// of c's lifetime (Close after shutdown). Tests that want a coordinator
// without metrics may set Server.Shards directly instead.
func (s *Server) AttachShards(c *shard.Coordinator) {
	c.EnableMetrics(s.reg)
	s.Shards = c
}

// degradedError is the machine-readable 503 body for a gather that
// produced no usable answer. Reason is a stable code (see the Degraded*
// constants); Shards carries each shard's outcome and error string.
type degradedError struct {
	Error  string `json:"error"`
	Reason string `json:"degraded"`
	// RetryAfterSeconds mirrors the Retry-After header for clients that
	// only parse bodies.
	RetryAfterSeconds int            `json:"retryAfterSeconds"`
	Shards            []shard.Status `json:"shards,omitempty"`
}

// Stable degraded-reason codes carried in degradedError.Reason.
const (
	// DegradedAllShardsFailed: every dispatched shard errored or was
	// breaker-rejected; no sound prefix exists.
	DegradedAllShardsFailed = "all-shards-failed"
	// DegradedGatherTimeout: the server-side evaluation deadline expired
	// before any shard answered.
	DegradedGatherTimeout = "gather-timeout"
	// DegradedShardLoss: the gather answered (200) but lost at least one
	// shard or got only a partial from one — the merged prefix is still
	// Lemma-1 sound. Appears in wide events, not error bodies.
	DegradedShardLoss = "shard-loss"
)

// searchSharded evaluates an admitted /search request through the shard
// coordinator. It owns the admission release. Sharded requests bypass
// the singleflight coalescer (per-shard breakers already bound
// duplicated work during incidents, and the flight cache is typed to
// single-engine results).
func (s *Server) searchSharded(w http.ResponseWriter, r *http.Request, release func(), req shard.Request) {
	defer release()
	ctx := r.Context()
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	tr := obs.TraceFromContext(r.Context())
	rec := obs.QueryRecord{
		ID:       obs.RequestIDFromContext(r.Context()),
		Endpoint: "/search",
		Algo:     req.Algo.String(),
		Keywords: strings.Join(req.Keywords, ","),
		K:        req.K,
	}
	begin := time.Now()
	g, err := s.Shards.Search(ctx, req)
	elapsed := time.Since(begin)
	rec.DurationMicros = elapsed.Microseconds()
	if tr != nil {
		tr.Finish()
		rec.Trace = tr.JSON()
	}
	if err != nil {
		rec.Error = err.Error()
		degraded := ""
		switch {
		case r.Context().Err() != nil:
			// Client gone; nobody reads a response.
			rec.Status = 499
		case errors.Is(err, shard.ErrAllShardsFailed):
			rec.Status = http.StatusServiceUnavailable
			degraded = DegradedAllShardsFailed
			s.writeDegraded(w, DegradedAllShardsFailed, err, g)
		case errors.Is(err, context.DeadlineExceeded):
			rec.Status = http.StatusServiceUnavailable
			degraded = DegradedGatherTimeout
			s.writeDegraded(w, DegradedGatherTimeout, err, g)
		default:
			rec.Status = http.StatusInternalServerError
			s.fail(w, http.StatusInternalServerError, "%v", err)
		}
		s.recordQuery(rec)
		if rec.Status != 499 {
			var stats *ksp.Stats
			var statuses []shard.Status
			if g != nil {
				stats, statuses = &g.Stats, g.Shards
			}
			s.noteWide(rec, tr.ID(), req.Window, req.MaxDist, stats, 0, degraded, statuses)
		}
		return
	}
	if r.Context().Err() != nil {
		rec.Status = 499
		s.recordQuery(rec)
		return
	}
	if g.Partial {
		s.sm.notePartial()
	}
	rec.Partial = g.Partial
	rec.Status = http.StatusOK
	s.recordQuery(rec)
	degraded := ""
	if g.Degraded {
		degraded = DegradedShardLoss
	}
	s.noteWide(rec, tr.ID(), req.Window, req.MaxDist, &g.Stats, len(g.Results), degraded, g.Shards)

	resp := SearchResponse{
		Results:  make([]SearchResult, 0, len(g.Results)),
		Partial:  g.Partial,
		Degraded: g.Degraded,
		Shards:   g.Shards,
		Stats: QueryStats{
			Algorithm:            req.Algo.String(),
			Millis:               elapsed.Milliseconds(),
			Micros:               elapsed.Microseconds(),
			TQSPComputations:     g.Stats.TQSPComputations,
			RTreeNodeAccesses:    g.Stats.RTreeNodeAccesses,
			Window:               req.Window,
			WindowsFilled:        g.Stats.WindowsFilled,
			WindowCandidates:     g.Stats.WindowCandidates,
			WindowScreenKilled:   g.Stats.WindowScreenKilled,
			WindowDeferredKilled: g.Stats.WindowDeferredKilled,
			CacheHits:            g.Stats.CacheHits,
			CacheBoundHits:       g.Stats.CacheBoundHits,
			CacheMisses:          g.Stats.CacheMisses,
			TimedOut:             g.Stats.TimedOut,
			Cancelled:            g.Stats.Cancelled,
		},
	}
	if g.Partial {
		resp.ScoreLowerBound = g.Bound
	}
	switch {
	case tr != nil && traceMode(r) == tracePerfetto:
		resp.Perfetto = obs.PerfettoFromSpan(rec.Trace)
	case tr != nil:
		resp.Trace = rec.Trace
	}
	if wantExplain(r) {
		// The plan section comes from the local engine's configuration
		// (shards over the same dataset build share it); the dispatch
		// table is the gather's own MinDist-ordered shard outcomes.
		rep := s.ds.ExplainFor(req.Algo,
			ksp.Query{Loc: ksp.Point{X: req.X, Y: req.Y}, Keywords: req.Keywords, K: req.K},
			ksp.Options{CollectTrees: req.CollectTrees, MaxDist: req.MaxDist, Window: req.Window},
			&g.Stats, len(g.Results))
		rep.Shards = explainShards(g.Shards)
		resp.Explain = rep
	}
	for _, item := range g.Results {
		sr := SearchResult{
			Place:     item.Place,
			URI:       item.URI,
			Score:     item.Score,
			Looseness: item.Looseness,
			Distance:  item.Dist,
			X:         item.X,
			Y:         item.Y,
			Exact:     item.Exact,
		}
		for _, n := range item.Tree {
			sr.Tree = append(sr.Tree, TreeNode(n))
		}
		resp.Results = append(resp.Results, sr)
	}
	s.writeJSON(w, resp)
}

// writeDegraded writes the coordinator's 503: Retry-After set to the
// breaker cooldown (rounded up to a whole second) and the
// machine-readable degradedError body, per-shard statuses included when
// the gather got far enough to produce them.
func (s *Server) writeDegraded(w http.ResponseWriter, reason string, err error, g *shard.Gather) {
	retry := int(math.Ceil(s.Shards.RetryAfter().Seconds()))
	if retry < 1 {
		retry = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	body := degradedError{
		Error:             err.Error(),
		Reason:            reason,
		RetryAfterSeconds: retry,
	}
	if g != nil {
		body.Shards = g.Shards
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	s.writeJSON(w, body)
}

// ReadyResponse is the /readyz payload on sharded servers: overall
// readiness plus each shard's breaker view. A plain-text "ready" stays
// the shape on single-engine servers.
type ReadyResponse struct {
	Ready       bool          `json:"ready"`
	ShardsUp    int           `json:"shardsUp"`
	ShardsTotal int           `json:"shardsTotal"`
	Shards      []ShardHealth `json:"shards"`
}

// ShardHealth is one shard's readiness line: Up when its breaker admits
// calls (closed or half-open).
type ShardHealth struct {
	Name    string `json:"name"`
	Breaker string `json:"breaker"`
	Up      bool   `json:"up"`
}

// readySharded writes the sharded /readyz: per-shard health, 200 while
// a strict majority of shards is up, 503 once a quorum (half or more)
// is down — losing a minority of shards degrades answers but keeps the
// service worth routing to.
func (s *Server) readySharded(w http.ResponseWriter) {
	up, total := s.Shards.Healthy()
	resp := ReadyResponse{
		Ready:       up*2 > total,
		ShardsUp:    up,
		ShardsTotal: total,
	}
	for _, info := range s.Shards.Snapshot() {
		resp.Shards = append(resp.Shards, ShardHealth{
			Name:    info.Name,
			Breaker: info.Breaker,
			Up:      info.Breaker != "open",
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if !resp.Ready {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	s.writeJSON(w, resp)
}

// BoundsSection reports the dataset's place MBR in /stats — shard
// coordinators read it from remote peers to enable distance pruning
// (the shape internal/shard's Remote decodes).
type BoundsSection struct {
	MinX float64 `json:"minX"`
	MinY float64 `json:"minY"`
	MaxX float64 `json:"maxX"`
	MaxY float64 `json:"maxY"`
}

func boundsSection(ds *ksp.Dataset) *BoundsSection {
	r, ok := ds.Bounds()
	if !ok {
		return nil
	}
	return &BoundsSection{MinX: r.MinX, MinY: r.MinY, MaxX: r.MaxX, MaxY: r.MaxY}
}
