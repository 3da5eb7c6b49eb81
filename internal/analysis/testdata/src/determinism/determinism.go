// Package determinism is golden input for the determinism check. The
// test loads it with Config.CorePackages pointing here, so every
// function counts as a result-producing path. `// want <check>` marks
// the lines the analyzer must flag; unmarked lines must stay clean.
package determinism

import (
	"math/rand"
	"sort"
	"time"
)

// rangeUnsorted leaks map order into the returned slice.
func rangeUnsorted(m map[string]int) []string {
	var out []string
	for k := range m { // want determinism
		out = append(out, k)
	}
	return out
}

// rangeSorted is the collect-then-sort idiom: order restored.
func rangeSorted(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// rangeClear only deletes from the map it iterates.
func rangeClear(m map[string]int) {
	for k := range m {
		delete(m, k)
	}
}

// rangeCopy copies one map into another: a set operation.
func rangeCopy(src map[string]int) map[string]int {
	dst := make(map[string]int, len(src))
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// rangeSuppressed carries a reviewed justification.
func rangeSuppressed(m map[string]int) []string {
	var out []string
	//ksplint:ignore determinism -- golden: suppression covers the next line
	for k := range m {
		out = append(out, k)
	}
	return out
}

// useRand draws from math/rand on a core path.
func useRand() int {
	return rand.Intn(10) // want determinism
}

// nowEscapes stores the wall-clock reading in a struct.
type stamped struct{ at time.Time }

func nowEscapes() stamped {
	return stamped{at: time.Now()} // want determinism
}

// nowForLatency only feeds duration arithmetic.
func nowForLatency() time.Duration {
	start := time.Now()
	work()
	return time.Since(start)
}

// nowInline is consumed directly by an arithmetic method.
func nowInline(deadline time.Time) bool {
	return time.Now().After(deadline)
}

// tieByClock breaks a score tie on the wall clock read as an integer.
func tieByClock(a, b float64) bool {
	if a != b {
		return a < b
	}
	return time.Now().UnixNano()%2 == 0 // want determinism
}

// clockSeed hands the clock out through a local, as an integer.
func clockSeed() int64 {
	start := time.Now() // want determinism
	return start.UnixMilli()
}

func work() {}
