package core

import (
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
