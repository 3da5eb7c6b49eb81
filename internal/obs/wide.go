package obs

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Wide-event slow-query log: every query emits one flat, structured
// record carrying the query shape and the whole execution profile —
// the "wide event" style of canonical log line. Records whose latency
// crosses a configurable threshold are retained in a ring (served at
// /debug/slow) and written through slog, so the slowest traffic is
// always explorable without sampling decisions made up front.

// WideShard is one shard's outcome inside a WideEvent. It mirrors the
// coordinator's per-shard status without importing the shard package
// (obs sits below it in the dependency order).
type WideShard struct {
	Name     string `json:"name"`
	State    string `json:"state"`
	Error    string `json:"error,omitempty"`
	Attempts int    `json:"attempts,omitempty"`
	Hedged   bool   `json:"hedged,omitempty"`
	Micros   int64  `json:"micros,omitempty"`
	// GatedMicros is how long the shard was held back for the nearer
	// tiles' head start; ThetaAtStart the gather's θ when it was
	// dispatched or pruned (omitted while +Inf).
	GatedMicros  int64   `json:"gatedMicros,omitempty"`
	ThetaAtStart float64 `json:"thetaAtStart,omitempty"`
}

// WideEvent is one query's canonical record: shape, plan, phase
// timings, pruning work, shard outcomes, degradation flags.
type WideEvent struct {
	RequestID string    `json:"requestId,omitempty"`
	TraceID   string    `json:"traceId,omitempty"`
	Time      time.Time `json:"time"`
	Endpoint  string    `json:"endpoint"`

	// Query shape.
	Algo     string  `json:"algo,omitempty"`
	Keywords string  `json:"keywords,omitempty"`
	K        int     `json:"k,omitempty"`
	Alpha    int     `json:"alpha,omitempty"`
	MaxDist  float64 `json:"maxDist,omitempty"`

	// Timings.
	DurationMicros int64 `json:"durationMicros"`
	SemanticMicros int64 `json:"semanticMicros,omitempty"`
	OtherMicros    int64 `json:"otherMicros,omitempty"`

	// Work and pruning profile (the paper's Rule 1–4 accounting).
	TQSPComputations int64 `json:"tqspComputations,omitempty"`
	PlacesRetrieved  int64 `json:"placesRetrieved,omitempty"`
	PrunedRule1      int64 `json:"prunedRule1,omitempty"`
	PrunedRule2      int64 `json:"prunedRule2,omitempty"`
	PrunedRule3      int64 `json:"prunedRule3,omitempty"`
	PrunedRule4      int64 `json:"prunedRule4,omitempty"`

	// Outcome.
	Status   int         `json:"status"`
	Results  int         `json:"results"`
	Partial  bool        `json:"partial,omitempty"`
	TimedOut bool        `json:"timedOut,omitempty"`
	Degraded string      `json:"degraded,omitempty"`
	Error    string      `json:"error,omitempty"`
	Shards   []WideShard `json:"shards,omitempty"`
}

// SlowLog retains the wide events of queries slower than a threshold in
// a fixed ring and emits each through slog at Warn level. All methods
// are nil-safe: a server with the slow log disabled carries a nil
// *SlowLog and pays nothing (callers guard the WideEvent construction
// behind Enabled).
type SlowLog struct {
	mu        sync.Mutex
	buf       []WideEvent
	next      int
	count     int
	threshold time.Duration
	logger    *slog.Logger
	slow      atomic.Int64
	observed  atomic.Int64
}

// NewSlowLog returns a slow-query log keeping the last n slow events
// (n < 1 selects 64) over the given latency threshold. A zero or
// negative threshold retains every query — useful in tests and
// short-lived debugging sessions. logger may be nil to skip slog
// emission and only keep the ring.
func NewSlowLog(n int, threshold time.Duration, logger *slog.Logger) *SlowLog {
	if n < 1 {
		n = 64
	}
	return &SlowLog{buf: make([]WideEvent, n), threshold: threshold, logger: logger}
}

// Enabled reports whether observing has any effect — callers use it to
// skip building a WideEvent entirely when the log is off.
func (l *SlowLog) Enabled() bool {
	if l == nil {
		return false
	}
	return true
}

// Threshold returns the latency cutoff (0 on a nil log).
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Observe records one query's wide event, retaining and logging it when
// its duration crosses the threshold. It reports whether the event was
// classified slow.
func (l *SlowLog) Observe(ev WideEvent) bool {
	if l == nil {
		return false
	}
	if l.Below(ev.DurationMicros) {
		return false
	}
	l.Keep(ev)
	return true
}

// Below counts one observed query of the given duration and reports
// whether it is under the threshold, a query Observe would drop. A
// caller that builds its WideEvent only when Below is false passes it to
// Keep, not Observe, which would count the query twice.
func (l *SlowLog) Below(durationMicros int64) bool {
	if l == nil {
		return true
	}
	l.observed.Add(1)
	return time.Duration(durationMicros)*time.Microsecond < l.threshold
}

// Keep retains and logs the event of a query Below classified slow.
func (l *SlowLog) Keep(ev WideEvent) {
	if l == nil {
		return
	}
	l.slow.Add(1)
	l.mu.Lock()
	l.buf[l.next] = ev
	l.next = (l.next + 1) % len(l.buf)
	if l.count < len(l.buf) {
		l.count++
	}
	l.mu.Unlock()
	if l.logger != nil {
		l.logger.LogAttrs(context.Background(), slog.LevelWarn, "slow query",
			slog.String("rid", ev.RequestID),
			slog.String("traceId", ev.TraceID),
			slog.String("endpoint", ev.Endpoint),
			slog.String("algo", ev.Algo),
			slog.String("keywords", ev.Keywords),
			slog.Int("k", ev.K),
			slog.Int64("durationMicros", ev.DurationMicros),
			slog.Int64("tqsp", ev.TQSPComputations),
			slog.Int("status", ev.Status),
			slog.Bool("partial", ev.Partial),
			slog.String("degraded", ev.Degraded),
			slog.Int("shards", len(ev.Shards)),
		)
	}
}

// Snapshot returns the retained slow events, newest first.
func (l *SlowLog) Snapshot() []WideEvent {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]WideEvent, 0, l.count)
	for i := 1; i <= l.count; i++ {
		out = append(out, l.buf[(l.next-i+len(l.buf))%len(l.buf)])
	}
	return out
}

// SlowTotal reports how many observed queries crossed the threshold
// over the log's lifetime (feeds ksp_server_slow_queries_total).
func (l *SlowLog) SlowTotal() int64 {
	if l == nil {
		return 0
	}
	return l.slow.Load()
}

// ObservedTotal reports how many queries were observed in total.
func (l *SlowLog) ObservedTotal() int64 {
	if l == nil {
		return 0
	}
	return l.observed.Load()
}
