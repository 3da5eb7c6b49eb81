package obs

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestTraceTreeShape(t *testing.T) {
	tr := NewTrace("search")
	root := tr.Root()
	prep := root.Child("prepare")
	prep.SetInt("keywords", 2)
	prep.End()
	cand := root.Child("candidate")
	tq := cand.Child("tqsp")
	time.Sleep(time.Millisecond)
	tq.End()
	cand.End()
	tr.Finish()

	j := tr.JSON()
	if j == nil || j.Name != "search" || len(j.Children) != 2 {
		t.Fatalf("tree = %+v", j)
	}
	if j.Children[0].Name != "prepare" || j.Children[1].Name != "candidate" {
		t.Fatalf("children = %v, %v", j.Children[0].Name, j.Children[1].Name)
	}
	if len(j.Children[0].Attrs) != 1 || j.Children[0].Attrs[0].Value != "2" {
		t.Fatalf("attrs = %+v", j.Children[0].Attrs)
	}
	inner := j.Children[1].Children
	if len(inner) != 1 || inner[0].Name != "tqsp" {
		t.Fatalf("tqsp missing: %+v", inner)
	}
	if inner[0].DurationMicros < 500 {
		t.Errorf("tqsp duration %dµs, want >= 1ms-ish", inner[0].DurationMicros)
	}
	if inner[0].StartMicros < j.Children[1].StartMicros {
		t.Error("child starts before parent")
	}
	if j.DurationMicros < inner[0].StartMicros+inner[0].DurationMicros-j.StartMicros {
		t.Error("root shorter than its children")
	}
}

func TestTraceSpanLimit(t *testing.T) {
	tr := NewTrace("root")
	tr.limit = 3 // root + 2 children
	root := tr.Root()
	a := root.Child("a")
	b := root.Child("b")
	c := root.Child("c") // over the limit
	if a == nil || b == nil {
		t.Fatal("spans under the limit were dropped")
	}
	if c != nil {
		t.Fatal("span over the limit was kept")
	}
	// Dropped spans accept the whole API without exploding.
	c.SetStr("k", "v")
	c.Child("grandchild").End()
	c.End()
	if tr.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped())
	}
	if tr.JSON().Dropped != 1 {
		t.Fatal("dropped count missing from JSON root")
	}
}

// Concurrent span creation across goroutines mirrors a sharded gather's
// concurrent shard calls; run under -race this is the data-race check.
func TestTraceConcurrentChildren(t *testing.T) {
	tr := NewTrace("root")
	root := tr.Root()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := root.Child("worker")
			ws.SetInt("idx", int64(w))
			for i := 0; i < 20; i++ {
				c := ws.Child("candidate")
				c.SetInt("i", int64(i))
				c.End()
			}
			ws.End()
		}(w)
	}
	wg.Wait()
	tr.Finish()
	j := tr.JSON()
	if len(j.Children) != 8 {
		t.Fatalf("worker spans = %d, want 8", len(j.Children))
	}
	total := 0
	for _, w := range j.Children {
		total += len(w.Children)
	}
	if total != 160 {
		t.Fatalf("candidate spans = %d, want 160", total)
	}
}

func TestQueryRing(t *testing.T) {
	r := NewQueryRing(3)
	for i := 0; i < 5; i++ {
		r.Add(QueryRecord{ID: string(rune('a' + i))})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	if snap[0].ID != "e" || snap[1].ID != "d" || snap[2].ID != "c" {
		t.Fatalf("order = %+v", snap)
	}
}

func TestRequestIDContext(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if a == "" || a == b {
		t.Fatalf("ids not unique: %q %q", a, b)
	}
	ctx := ContextWithRequestID(ContextWithTrace(context.Background(), NewTrace("x")), a)
	if RequestIDFromContext(ctx) != a {
		t.Fatal("request id lost")
	}
	if TraceFromContext(ctx) == nil {
		t.Fatal("trace lost")
	}
}
