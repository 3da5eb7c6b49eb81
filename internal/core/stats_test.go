package core

import (
	"reflect"
	"testing"
	"time"
)

// TestFinishStatsClampsNegativeOther pins the finishStats contract:
// SemanticTime is summed from separate clock readings, and should it
// ever exceed the wall-clock elapsed, OtherTime clamps to zero rather
// than going negative in reports.
func TestFinishStatsClampsNegativeOther(t *testing.T) {
	stats := &Stats{SemanticTime: 80 * time.Millisecond}
	finishStats(stats, 100*time.Millisecond)
	if got, want := stats.OtherTime, 20*time.Millisecond; got != want {
		t.Fatalf("OtherTime = %v, want %v", got, want)
	}

	stats = &Stats{SemanticTime: 300 * time.Millisecond}
	finishStats(stats, 100*time.Millisecond)
	if stats.OtherTime != 0 {
		t.Fatalf("OtherTime = %v, want 0 (clamped)", stats.OtherTime)
	}
}

// TestStatsAddSumsEveryCounter keeps Stats.Add in step with the struct:
// every int64 and time.Duration field, given a distinct non-zero value and
// added twice into a zero Stats, must come out doubled. A counter added to
// Stats but not to Add fails here.
func TestStatsAddSumsEveryCounter(t *testing.T) {
	var one Stats
	v := reflect.ValueOf(&one).Elem()
	counters := 0
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int64 {
			f.SetInt(int64(i + 1))
			counters++
		}
	}
	if counters == 0 {
		t.Fatal("Stats has no int64 or time.Duration fields")
	}
	var sum Stats
	sum.Add(&one)
	sum.Add(&one)
	got := reflect.ValueOf(sum)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Kind() != reflect.Int64 {
			continue
		}
		if g, want := got.Field(i).Int(), 2*int64(i+1); g != want {
			t.Errorf("Stats.%s = %d after adding %d twice, want %d",
				v.Type().Field(i).Name, g, i+1, want)
		}
	}
}
