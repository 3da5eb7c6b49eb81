package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Trace records the timed phase tree of one query evaluation. A Trace
// is created per request (only when asked for — tracing is opt-in per
// query), handed to the engine, and rendered to JSON afterwards.
//
// Concurrency: span creation and field writes lock the trace, so a
// sharded gather's concurrent shard calls and hedges may all open spans
// on one trace. Reading (JSON) must happen after the query
// completes.
//
// Every method is nil-safe: with a nil *Trace (tracing off) the whole
// span API degenerates to no-ops without allocating.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	root    *Span
	limit   int
	spans   int
	dropped int64
	id      string
}

// DefaultSpanLimit bounds the spans of one trace; a query evaluating
// thousands of candidates keeps its trace at a bounded size and the
// overflow is reported in Dropped.
const DefaultSpanLimit = 1024

// NewTrace starts a trace whose root span has the given name. The trace
// is minted a fresh 16-byte hex ID for wire propagation; SetID replaces
// it when the trace continues one received from upstream.
func NewTrace(name string) *Trace {
	//ksplint:ignore determinism -- trace epoch; span times are time.Since offsets from it
	t := &Trace{start: time.Now(), limit: DefaultSpanLimit, id: NewTraceID()}
	t.root = &Span{t: t, name: name}
	t.spans = 1
	return t
}

// ID returns the trace's wire identifier ("" on a nil trace).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// SetID replaces the trace ID — used by a shard that joins a trace
// started upstream (the coordinator's traceparent header carries the
// ID). Invalid IDs are ignored, keeping the minted one.
func (t *Trace) SetID(id string) {
	if t == nil {
		return
	}
	if !validHex(id, 32) {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// Root returns the root span (nil on a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.root
}

// Finish ends the root span (children left open keep their recorded
// end of zero duration-so-far; the engine ends its spans itself).
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.root.End()
}

// Dropped reports how many spans the limit discarded.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Attr is one key=value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed phase. Spans form a tree under the trace root;
// each span is written by the goroutine that opened it.
type Span struct {
	t        *Trace
	name     string
	start    time.Duration // offset from trace start
	end      time.Duration // zero until End
	ended    bool
	attrs    []Attr
	children []*Span
	// remote holds span subtrees captured on another process (a shard)
	// and grafted under this span by AttachRemote. They are rendered as
	// extra children at export time, rebased onto this trace's clock.
	remote []*SpanJSON
}

// AttachRemote grafts a span subtree exported by another process (a
// remote shard's trace) under this span. The subtree's durations are
// trusted as measured; its absolute start offsets, which are relative
// to the *remote* trace's epoch, are rebased at export time so the
// remote root aligns with this span's start, and the shift applied is
// annotated on the grafted root as clockRebasedMicros (the two clocks
// are never assumed synchronized). Nil-safe on both arguments.
func (s *Span) AttachRemote(sub *SpanJSON) {
	if s == nil {
		return
	}
	if sub == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	s.remote = append(s.remote, sub)
	t.mu.Unlock()
}

// droppedSpansTotal counts spans lost to the span cap across every
// trace in the process — the process-lifetime companion of the
// per-trace droppedSpans field, exported as
// ksp_trace_spans_dropped_total so overflow is visible on a dashboard
// and not only in the (possibly never-read) trace JSON.
var droppedSpansTotal atomic.Int64

// DroppedSpansTotal reports the process-lifetime count of spans
// discarded by per-trace span limits.
func DroppedSpansTotal() int64 { return droppedSpansTotal.Load() }

// Child opens a sub-span. On a nil receiver (tracing off) or past the
// trace's span limit it returns nil, which the rest of the API accepts.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.t
	c := &Span{t: t, name: name, start: time.Since(t.start)} //ksplint:ignore allocbound -- allocates only when tracing is on (opt-in diagnostics); nil receiver is the hot path
	t.mu.Lock()
	if t.spans >= t.limit {
		t.dropped++
		t.mu.Unlock()
		droppedSpansTotal.Add(1)
		return nil
	}
	t.spans++
	s.children = append(s.children, c)
	t.mu.Unlock()
	return c
}

// End closes the span. Safe to call more than once; later calls keep
// the first recorded end.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.end = time.Since(t.start)
	}
	t.mu.Unlock()
}

// setAttr appends one annotation under the trace lock.
func (s *Span) setAttr(key, value string) {
	if s == nil {
		return
	}
	t := s.t
	t.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	t.mu.Unlock()
}

// SetStr annotates the span with a string value. The typed Set
// variants take scalars, never interface{}: a call on a nil span must
// not box its argument, or the disabled path would allocate.
func (s *Span) SetStr(key, value string) {
	if s == nil {
		return
	}
	s.setAttr(key, value)
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.setAttr(key, strconv.FormatInt(v, 10))
}

// SetFloat annotates the span with a float value.
func (s *Span) SetFloat(key string, v float64) {
	if s == nil {
		return
	}
	s.setAttr(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// SpanJSON is the wire form of a span tree: offsets and durations in
// microseconds from the trace start, attributes as key=value pairs.
type SpanJSON struct {
	Name           string      `json:"name"`
	StartMicros    int64       `json:"startMicros"`
	DurationMicros int64       `json:"durationMicros"`
	Attrs          []Attr      `json:"attrs,omitempty"`
	Children       []*SpanJSON `json:"children,omitempty"`
	// Dropped, set on the root only, counts spans lost to the trace's
	// span limit.
	Dropped int64 `json:"droppedSpans,omitempty"`
	// TraceID, set on the root only, is the trace's wire identifier —
	// the same ID the traceparent header carries across shard calls, so
	// coordinator and shard trees correlate.
	TraceID string `json:"traceId,omitempty"`
}

// JSON renders the completed trace (nil for a nil trace). Call after
// the query has finished; it takes the trace lock once.
func (t *Trace) JSON() *SpanJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := exportSpan(t.root)
	if out == nil {
		return nil
	}
	out.Dropped = t.dropped
	out.TraceID = t.id
	return out
}

func exportSpan(s *Span) *SpanJSON {
	if s == nil {
		return nil
	}
	end := s.end
	if !s.ended {
		// An unended span (one still open when the trace is exported)
		// reports zero duration rather than a bogus wall-clock read.
		end = s.start
	}
	out := &SpanJSON{
		Name:           s.name,
		StartMicros:    s.start.Microseconds(),
		DurationMicros: (end - s.start).Microseconds(),
		Attrs:          s.attrs,
	}
	for _, c := range s.children {
		out.Children = append(out.Children, exportSpan(c))
	}
	for _, sub := range s.remote {
		// Align the remote root with this span's start: the remote
		// clock's epoch is unknown, so absolute offsets are rebased and
		// only the measured durations are trusted.
		shift := s.start.Microseconds() - sub.StartMicros
		g := rebaseSpan(sub, shift)
		g.Attrs = append(g.Attrs, Attr{Key: "clockRebasedMicros", Value: strconv.FormatInt(shift, 10)})
		out.Children = append(out.Children, g)
	}
	return out
}

// rebaseSpan deep-copies an exported span tree shifting every start
// offset by shift microseconds. Durations are preserved; the copy keeps
// the original untouched so one shard response can be grafted into
// several traces (e.g. a ring record and a live response).
func rebaseSpan(in *SpanJSON, shift int64) *SpanJSON {
	if in == nil {
		return nil
	}
	out := &SpanJSON{
		Name:           in.Name,
		StartMicros:    in.StartMicros + shift,
		DurationMicros: in.DurationMicros,
		Dropped:        in.Dropped,
		TraceID:        in.TraceID,
	}
	if len(in.Attrs) > 0 {
		out.Attrs = append([]Attr(nil), in.Attrs...)
	}
	for _, c := range in.Children {
		out.Children = append(out.Children, rebaseSpan(c, shift))
	}
	return out
}

// --- context plumbing ---

type ctxKey int

const (
	traceKey ctxKey = iota
	ridKey
)

// ContextWithTrace attaches a trace to ctx.
func ContextWithTrace(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceKey, t)
}

// TraceFromContext returns the attached trace, or nil.
func TraceFromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey).(*Trace)
	return t
}

// ContextWithRequestID attaches a request ID to ctx.
func ContextWithRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, ridKey, rid)
}

// RequestIDFromContext returns the attached request ID, or "".
func RequestIDFromContext(ctx context.Context) string {
	rid, _ := ctx.Value(ridKey).(string)
	return rid
}

var ridCounter atomic.Uint64

// NewRequestID returns a short unique request identifier: 6 random
// bytes plus a process-local sequence number, so IDs stay unique even
// if the random source ever repeats.
func NewRequestID() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the counter alone; uniqueness within the process
		// still holds.
		return fmt.Sprintf("req-%d", ridCounter.Add(1))
	}
	return hex.EncodeToString(b[:]) + "-" + strconv.FormatUint(ridCounter.Add(1), 36)
}
