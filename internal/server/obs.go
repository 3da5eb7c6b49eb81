package server

import (
	"log/slog"
	"net/http"
	"time"

	"ksp/internal/obs"
)

// knownPaths is the endpoint allowlist for per-path metric labels.
// Request paths outside it collapse to "other" so arbitrary client URLs
// cannot mint unbounded label values.
var knownPaths = []string{
	"/search", "/keyword", "/nearest", "/describe",
	"/stats", "/metrics", "/debug/queries", "/debug/slow", "/healthz", "/readyz",
}

func pathLabel(p string) string {
	for _, k := range knownPaths {
		if p == k {
			return k
		}
	}
	return "other"
}

// serverMetrics holds the HTTP-layer instruments. Per-path instruments
// are pre-registered over the allowlist, so the request path never
// touches the registry's lock. All note methods are nil-safe: a Server
// built without New (zero value) serves unmetered.
type serverMetrics struct {
	requests map[string]*obs.Counter
	latency  map[string]*obs.Histogram
	partial  *obs.Counter
}

func (m *serverMetrics) noteRequest(path string, dur time.Duration) {
	if m == nil {
		return
	}
	p := pathLabel(path)
	m.requests[p].Inc()
	m.latency[p].Observe(dur.Seconds())
}

func (m *serverMetrics) notePartial() {
	if m == nil {
		return
	}
	m.partial.Inc()
}

// registerMetrics registers the server's instruments in reg. Admission
// series read through the atomic admission pointer rather than
// s.admission() so that a scrape arriving before the first request does
// not freeze the admission knobs mid-configuration.
func (s *Server) registerMetrics(reg *obs.Registry) {
	m := &serverMetrics{
		requests: make(map[string]*obs.Counter),
		latency:  make(map[string]*obs.Histogram),
	}
	for _, p := range append(append([]string(nil), knownPaths...), "other") {
		lbl := obs.Label{Key: "path", Value: p}
		m.requests[p] = reg.Counter("ksp_server_requests_total",
			"HTTP requests served, by endpoint.", lbl)
		m.latency[p] = reg.Histogram("ksp_server_request_duration_seconds",
			"HTTP request latency in seconds, by endpoint.", nil, lbl)
	}
	m.partial = reg.Counter("ksp_server_partial_responses_total",
		"Search responses returned partial after a deadline or cancellation.")
	reg.CounterFunc("ksp_server_panics_recovered_total",
		"Request handler panics contained by the server.",
		func() float64 { return float64(s.panics.Load()) })
	reg.CounterFunc("ksp_trace_spans_dropped_total",
		"Spans dropped process-wide by traces that hit their span cap.",
		func() float64 { return float64(obs.DroppedSpansTotal()) })
	reg.CounterFunc("ksp_server_slow_queries_total",
		"Queries whose latency crossed the slow-query threshold.",
		func() float64 { return float64(s.slow.SlowTotal()) })

	snap := func() AdmissionSection {
		if adm := s.admPtr.Load(); adm != nil {
			return adm.snapshot()
		}
		return AdmissionSection{}
	}
	reg.GaugeFunc("ksp_server_admission_capacity",
		"Total evaluation width the admission controller grants at once.",
		func() float64 { return float64(snap().Capacity) })
	reg.GaugeFunc("ksp_server_admission_in_use",
		"Evaluation width currently held by admitted requests.",
		func() float64 { return float64(snap().InUse) })
	reg.GaugeFunc("ksp_server_admission_queue_depth",
		"Requests currently queued for admission.",
		func() float64 { return float64(snap().Queued) })
	reg.CounterFunc("ksp_server_admission_admitted_total",
		"Requests admitted past the admission controller.",
		func() float64 { return float64(snap().Admitted) })
	reg.CounterFunc("ksp_server_admission_rejected_total",
		"Requests shed because the wait queue was full.",
		func() float64 { return float64(snap().RejectedBusy) },
		obs.Label{Key: "reason", Value: "busy"})
	reg.CounterFunc("ksp_server_admission_rejected_total",
		"Requests shed after queueing past the wait timeout.",
		func() float64 { return float64(snap().RejectedTimeout) },
		obs.Label{Key: "reason", Value: "timeout"})
	s.sm = m
}

// statusWriter captures the response status for access logs and the
// query ring; a handler that never calls WriteHeader implies 200.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) status() int {
	if w.code == 0 {
		return http.StatusOK
	}
	return w.code
}

// log returns the structured logger: the Logger knob, or the process
// default.
func (s *Server) log() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// Registry exposes the server's metrics registry so embedding programs
// (the CLI daemon, tests) can add their own instruments or scrape
// without HTTP.
func (s *Server) Registry() *obs.Registry { return s.reg }

// traceOutput is the rendering the ?trace= parameter selected.
type traceOutput int

const (
	traceOff traceOutput = iota
	// traceTree (?trace=1|true) returns the span tree JSON inline.
	traceTree
	// tracePerfetto (?trace=perfetto|chrome) returns the same capture in
	// Chrome/Perfetto trace_event form, ready for a flamegraph viewer.
	tracePerfetto
)

// handleMetrics serves the registry in Prometheus text exposition
// format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if s.reg == nil {
		s.fail(w, http.StatusNotFound, "metrics disabled")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.reg.WriteText(w); err != nil {
		s.log().Debug("metrics write failed", "err", err)
	}
}

// DebugQueriesResponse is the /debug/queries payload: the most recent
// queries, newest first, with their traces when the client asked for
// one.
type DebugQueriesResponse struct {
	Queries []obs.QueryRecord `json:"queries"`
}

func (s *Server) handleDebugQueries(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, DebugQueriesResponse{Queries: s.ring.Snapshot()})
}

// recordQuery stamps and stores one finished query in the debug ring.
func (s *Server) recordQuery(rec obs.QueryRecord) {
	//ksplint:ignore determinism -- debug-ring arrival timestamp; never feeds result ranking
	rec.Time = time.Now()
	s.ring.Add(rec)
}
