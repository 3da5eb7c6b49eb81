package server

import (
	"context"
	"errors"
	"math"
	"net/http"
	"strconv"
	"time"

	"ksp"
	"ksp/internal/shard"
)

// Scatter-gather /search: when Server.Shards is set, admitted search
// requests evaluate through the coordinator instead of the single local
// engine; the rest of handleSearch is the same for both. The response
// shape is the same SearchResponse — clients need not know whether one
// engine or seven answered — extended with the Degraded flag and the
// per-shard Status list. Failure modes:
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

// gather evaluates req through the shard coordinator under the
// server's timeout and returns the merged answer (zero when the gather
// got no further than an error) with the gather's wall clock.
func (s *Server) gather(r *http.Request, req shard.Request) (shard.Gather, time.Duration, error) {
	ctx := r.Context()
	if s.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.Timeout)
		defer cancel()
	}
	begin := time.Now()
	g, err := s.Shards.Search(ctx, req)
	elapsed := time.Since(begin)
	if g == nil {
		return shard.Gather{}, elapsed, err
	}
	return *g, elapsed, err
}

// gatherFailed writes the response for a failed gather and returns its
// status and degraded reason: 503 when every shard failed or the gather
// ran out of time, with Retry-After set to the breaker cooldown (rounded
// up to a whole second) and the machine-readable degradedError body,
// per-shard statuses included when the gather got far enough to produce
// them; 500 otherwise.
func (s *Server) gatherFailed(w http.ResponseWriter, err error, statuses []shard.Status) (int, string) {
	reason := ""
	switch {
	case errors.Is(err, shard.ErrAllShardsFailed):
		reason = DegradedAllShardsFailed
	case errors.Is(err, context.DeadlineExceeded):
		reason = DegradedGatherTimeout
	default:
		s.fail(w, http.StatusInternalServerError, "%v", err)
		return http.StatusInternalServerError, ""
	}
	retry := max(int(math.Ceil(s.Shards.RetryAfter().Seconds())), 1)
	w.Header().Set("Retry-After", strconv.Itoa(retry))
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	s.writeJSON(w, degradedError{
		Error:             err.Error(),
		Reason:            reason,
		RetryAfterSeconds: retry,
		Shards:            statuses,
	})
	return http.StatusServiceUnavailable, reason
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
