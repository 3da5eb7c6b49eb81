package server

import (
	"net/http"
	"time"

	"ksp"
	"ksp/internal/obs"
	"ksp/internal/shard"
)

// Wide-event slow-query surface: when the slow log is enabled
// (EnableSlowLog / kspserver -slow-threshold), every finished /search
// emits one flat obs.WideEvent — query shape, phase timings, per-rule
// pruning counts, shard outcomes, degradation flags — and the events
// that cross the latency threshold are retained in a ring served at
// /debug/slow and written through slog at Warn. With the log disabled
// the event is never built (the zero-alloc disabled-path contract).

// SlowSection reports the slow-query log in /stats.
type SlowSection struct {
	ThresholdMicros int64 `json:"thresholdMicros"`
	// Observed counts every query the log saw; Slow the subset that
	// crossed the threshold.
	Observed int64 `json:"observed"`
	Slow     int64 `json:"slow"`
}

// DebugSlowResponse is the /debug/slow payload: the retained slow
// queries, newest first.
type DebugSlowResponse struct {
	ThresholdMicros int64           `json:"thresholdMicros"`
	SlowTotal       int64           `json:"slowTotal"`
	ObservedTotal   int64           `json:"observedTotal"`
	Queries         []obs.WideEvent `json:"queries"`
}

func (s *Server) handleDebugSlow(w http.ResponseWriter, r *http.Request) {
	if !s.slow.Enabled() {
		s.fail(w, http.StatusNotFound, "slow-query log disabled")
		return
	}
	s.writeJSON(w, DebugSlowResponse{
		ThresholdMicros: s.slow.Threshold().Microseconds(),
		SlowTotal:       s.slow.SlowTotal(),
		ObservedTotal:   s.slow.ObservedTotal(),
		Queries:         s.slow.Snapshot(),
	})
}

// noteWide emits one query's wide event into the slow log. It returns
// immediately — without building the event — when the log is disabled,
// so the happy path pays only the call. stats and statuses may be nil
// (failed queries), degraded is the machine-readable reason ("" when the
// gather was whole).
func (s *Server) noteWide(rec obs.QueryRecord, traceID string, window int, maxDist float64,
	stats *ksp.Stats, results int, degraded string, statuses []shard.Status) {
	if !s.slow.Enabled() {
		return
	}
	ev := obs.WideEvent{
		RequestID:      rec.ID,
		TraceID:        traceID,
		Endpoint:       rec.Endpoint,
		Algo:           rec.Algo,
		Keywords:       rec.Keywords,
		K:              rec.K,
		Alpha:          s.ds.AlphaRadius(),
		Window:         window,
		MaxDist:        maxDist,
		DurationMicros: rec.DurationMicros,
		Status:         rec.Status,
		Results:        results,
		Partial:        rec.Partial,
		Degraded:       degraded,
		Error:          rec.Error,
	}
	if stats != nil {
		ev.SemanticMicros = stats.SemanticTime.Microseconds()
		ev.OtherMicros = stats.OtherTime.Microseconds()
		ev.TQSPComputations = stats.TQSPComputations
		ev.PlacesRetrieved = stats.PlacesRetrieved
		ev.PrunedRule1 = stats.PrunedUnqualified
		ev.PrunedRule2 = stats.PrunedDynamicBound
		ev.PrunedRule3 = stats.PrunedAlphaPlaces
		ev.PrunedRule4 = stats.PrunedAlphaNodes
		ev.CacheHits = stats.CacheHits
		ev.CacheBoundHits = stats.CacheBoundHits
		ev.CacheMisses = stats.CacheMisses
		ev.TimedOut = stats.TimedOut
	}
	for _, st := range statuses {
		ev.Shards = append(ev.Shards, obs.WideShard{
			Name:     st.Shard,
			State:    st.State,
			Error:    st.Error,
			Attempts: st.Attempts,
			Hedged:   st.Hedged,
			Micros:   st.Micros,

			GatedMicros:  st.GatedMicros,
			ThetaAtStart: st.ThetaAtStart,
		})
	}
	//ksplint:ignore determinism -- wide-event wall-clock stamp; never feeds result ranking
	ev.Time = time.Now()
	s.slow.Observe(ev)
}

// explainShards converts the gather's per-shard statuses into the
// EXPLAIN dispatch table.
func explainShards(statuses []shard.Status) []ksp.ExplainShard {
	out := make([]ksp.ExplainShard, 0, len(statuses))
	for _, st := range statuses {
		out = append(out, ksp.ExplainShard{
			Name:     st.Shard,
			Order:    st.Order,
			MinDist:  st.MinDist,
			State:    st.State,
			Breaker:  st.Breaker,
			Attempts: st.Attempts,
			Hedged:   st.Hedged,
			Micros:   st.Micros,
			Error:    st.Error,

			GatedMicros:  st.GatedMicros,
			ThetaAtStart: st.ThetaAtStart,
		})
	}
	return out
}
