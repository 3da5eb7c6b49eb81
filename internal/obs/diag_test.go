package obs

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// --- traceparent propagation ---

func TestTraceparentRoundTrip(t *testing.T) {
	traceID, spanID := NewTraceID(), NewSpanID()
	for _, sampled := range []bool{true, false} {
		h := FormatTraceparent(traceID, spanID, sampled)
		if h == "" {
			t.Fatalf("FormatTraceparent(%q, %q) = empty", traceID, spanID)
		}
		gotTrace, gotSpan, gotSampled, ok := ParseTraceparent(h)
		if !ok {
			t.Fatalf("ParseTraceparent(%q) not ok", h)
		}
		if gotTrace != traceID || gotSpan != spanID || gotSampled != sampled {
			t.Fatalf("round trip %q = (%q, %q, %v), want (%q, %q, %v)",
				h, gotTrace, gotSpan, gotSampled, traceID, spanID, sampled)
		}
	}
}

func TestTraceparentRejectsInvalid(t *testing.T) {
	valid := FormatTraceparent(NewTraceID(), NewSpanID(), true)
	bad := []string{
		"",
		"junk",
		strings.Replace(valid, "00-", "ff-", 1), // unknown version
		valid[:len(valid)-1],                    // truncated flags
		"00-" + strings.Repeat("0", 32) + "-" + NewSpanID() + "-01",  // all-zero trace ID
		"00-" + strings.Repeat("z", 32) + "-" + NewSpanID() + "-01",  // non-hex
		"00-" + NewTraceID() + "-" + strings.Repeat("0", 16) + "-01", // all-zero span ID
	}
	for _, h := range bad {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want rejected", h)
		}
	}
	if got := FormatTraceparent("short", NewSpanID(), true); got != "" {
		t.Errorf("FormatTraceparent with bad trace ID = %q, want empty", got)
	}
}

func TestTraceIDJoin(t *testing.T) {
	tr := NewTrace("q")
	minted := tr.ID()
	if !validHex(minted, 32) {
		t.Fatalf("minted trace ID %q is not 32 hex chars", minted)
	}
	joined := NewTraceID()
	tr.SetID(joined)
	if tr.ID() != joined {
		t.Fatalf("after SetID: ID = %q, want %q", tr.ID(), joined)
	}
	tr.SetID("not-hex") // invalid: ignored
	if tr.ID() != joined {
		t.Fatalf("invalid SetID replaced ID: %q", tr.ID())
	}
	tr.Finish()
	if root := tr.JSON(); root.TraceID != joined {
		t.Fatalf("exported root traceId = %q, want %q", root.TraceID, joined)
	}
}

// --- remote subtree grafting ---

// A grafted remote subtree is rebased at export: its root aligns with
// the graft span's start, every descendant shifts by the same delta,
// durations pass through untouched, and the applied shift is annotated.
func TestAttachRemoteRebases(t *testing.T) {
	tr := NewTrace("gather")
	call := tr.Root().Child("shard.call")
	remote := &SpanJSON{
		Name: "shard:a", StartMicros: 500, DurationMicros: 100,
		Children: []*SpanJSON{{Name: "prepare", StartMicros: 520, DurationMicros: 30}},
	}
	call.AttachRemote(remote)
	time.Sleep(time.Millisecond)
	call.End()
	tr.Finish()

	root := tr.JSON()
	callJSON := root.Children[0]
	if len(callJSON.Children) != 1 {
		t.Fatalf("graft count = %d, want 1", len(callJSON.Children))
	}
	g := callJSON.Children[0]
	if g.Name != "shard:a" {
		t.Fatalf("grafted root = %q", g.Name)
	}
	if g.StartMicros != callJSON.StartMicros {
		t.Errorf("grafted root start %d, want aligned with call span %d", g.StartMicros, callJSON.StartMicros)
	}
	if g.DurationMicros != 100 {
		t.Errorf("grafted root duration %d, want 100 (trusted as measured)", g.DurationMicros)
	}
	if len(g.Children) != 1 || g.Children[0].Name != "prepare" {
		t.Fatalf("grafted children = %+v", g.Children)
	}
	if got, want := g.Children[0].StartMicros, g.StartMicros+20; got != want {
		t.Errorf("grafted child start %d, want %d (same shift as root)", got, want)
	}
	if g.Children[0].DurationMicros != 30 {
		t.Errorf("grafted child duration %d, want 30", g.Children[0].DurationMicros)
	}
	var shift string
	for _, a := range g.Attrs {
		if a.Key == "clockRebasedMicros" {
			shift = a.Value
		}
	}
	if shift == "" {
		t.Error("grafted root missing clockRebasedMicros annotation")
	}
	// The rebase copies: the attached subtree is not mutated, so a
	// response buffered elsewhere still reads shard-local offsets.
	if remote.StartMicros != 500 || remote.Children[0].StartMicros != 520 || len(remote.Attrs) != 0 {
		t.Errorf("AttachRemote mutated the attached subtree: %+v", remote)
	}
}

func TestDroppedSpansTotal(t *testing.T) {
	before := DroppedSpansTotal()
	tr := NewTrace("overflow")
	for i := 0; i < DefaultSpanLimit+10; i++ {
		tr.Root().Child("s").End()
	}
	tr.Finish()
	if tr.JSON().Dropped == 0 {
		t.Fatal("per-trace dropped count = 0, want > 0")
	}
	if got := DroppedSpansTotal(); got <= before {
		t.Fatalf("process-wide dropped total %d, want > %d", got, before)
	}
}

// --- Perfetto/Chrome trace_event export ---

// The export must match the trace_event JSON Object Format: a
// displayTimeUnit plus complete ("ph":"X") events with microsecond
// ts/dur — validated through the marshalled JSON, not the Go structs.
func TestPerfettoTraceEventShape(t *testing.T) {
	tr := NewTrace("q")
	c := tr.Root().Child("prepare")
	c.SetStr("outcome", "ok")
	c.End()
	tr.Finish()
	data, err := json.Marshal(PerfettoFromSpan(tr.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string                       `json:"displayTimeUnit"`
		TraceEvents     []map[string]json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export is not a trace_event document: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("events = %d, want 2", len(doc.TraceEvents))
	}
	for _, ev := range doc.TraceEvents {
		var ph string
		if err := json.Unmarshal(ev["ph"], &ph); err != nil || ph != "X" {
			t.Errorf("event ph = %s, want \"X\"", ev["ph"])
		}
		for _, key := range []string{"name", "ts", "dur", "pid", "tid"} {
			if _, ok := ev[key]; !ok {
				t.Errorf("event missing %q: %s", key, ev)
			}
		}
	}
}

// Overlapping non-nested siblings (concurrent shard calls, hedged attempts)
// must land on distinct tracks; properly nested spans stay on the
// parent's track.
func TestPerfettoLaneAssignment(t *testing.T) {
	root := &SpanJSON{
		Name: "root", StartMicros: 0, DurationMicros: 100,
		Children: []*SpanJSON{
			{Name: "a", StartMicros: 10, DurationMicros: 50,
				Children: []*SpanJSON{{Name: "a1", StartMicros: 15, DurationMicros: 10}}},
			{Name: "b", StartMicros: 30, DurationMicros: 50}, // overlaps a, not nested
			{Name: "c", StartMicros: 85, DurationMicros: 10}, // after both
		},
	}
	events := PerfettoFromSpan(root).TraceEvents
	tid := map[string]int{}
	for _, ev := range events {
		tid[ev.Name] = ev.TID
	}
	if tid["a"] != tid["root"] {
		t.Errorf("first child should share the root track: a=%d root=%d", tid["a"], tid["root"])
	}
	if tid["a1"] != tid["a"] {
		t.Errorf("nested child moved tracks: a1=%d a=%d", tid["a1"], tid["a"])
	}
	if tid["b"] == tid["a"] {
		t.Errorf("overlapping sibling b shares track %d with a — viewers would nest them", tid["b"])
	}
	if PerfettoFromSpan(nil) != nil {
		t.Error("PerfettoFromSpan(nil) != nil")
	}
}

// --- slow-query wide-event log ---

func TestSlowLogThresholdAndRing(t *testing.T) {
	l := NewSlowLog(2, 10*time.Millisecond, nil)
	if !l.Enabled() {
		t.Fatal("constructed log not enabled")
	}
	if l.Observe(WideEvent{RequestID: "fast", DurationMicros: 3_000}) {
		t.Error("3ms observed as slow under a 10ms threshold")
	}
	for _, id := range []string{"s1", "s2", "s3"} {
		if !l.Observe(WideEvent{RequestID: id, DurationMicros: 50_000}) {
			t.Errorf("%s not classified slow", id)
		}
	}
	if l.ObservedTotal() != 4 || l.SlowTotal() != 3 {
		t.Fatalf("totals = %d/%d, want 4 observed / 3 slow", l.ObservedTotal(), l.SlowTotal())
	}
	snap := l.Snapshot()
	if len(snap) != 2 || snap[0].RequestID != "s3" || snap[1].RequestID != "s2" {
		t.Fatalf("snapshot = %+v, want [s3 s2] (ring of 2, newest first)", snap)
	}
}

func TestSlowLogZeroThresholdKeepsEverything(t *testing.T) {
	l := NewSlowLog(4, 0, nil)
	if !l.Observe(WideEvent{DurationMicros: 1}) {
		t.Fatal("zero threshold should classify every query slow")
	}
}

func TestSlowLogNilSafe(t *testing.T) {
	var l *SlowLog
	if l.Enabled() || l.Observe(WideEvent{}) || l.Snapshot() != nil ||
		l.SlowTotal() != 0 || l.ObservedTotal() != 0 || l.Threshold() != 0 {
		t.Fatal("nil SlowLog must be inert")
	}
}

// The disabled diagnostics paths — nil slow log, nil trace — must not
// allocate: they sit on every query's hot path (the PR 3 contract, CI's
// bench-guard gate).
func TestDisabledDiagnosticsZeroAlloc(t *testing.T) {
	var l *SlowLog
	var tr *Trace
	n := testing.AllocsPerRun(1000, func() {
		if l.Enabled() {
			t.Fatal("nil log enabled")
		}
		l.Observe(WideEvent{})
		tr.SetID("deadbeef")
		tr.Root().AttachRemote(nil)
		_ = tr.ID()
	})
	if n != 0 {
		t.Fatalf("disabled diagnostics path allocates %v allocs/op, want 0", n)
	}
}
