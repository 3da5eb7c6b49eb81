package core

import (
	"fmt"
	"runtime/debug"

	"ksp/internal/faultinject"
)

// Fault-injection points compiled into the evaluation paths (see
// internal/faultinject). With no plan active each costs one atomic load.
var (
	// PointPrepare fires at query preparation (keyword resolution).
	PointPrepare = faultinject.Register("core.prepare")
	// PointSerialCandidate fires per admitted candidate in the evaluation
	// loop.
	PointSerialCandidate = faultinject.Register("core.serial.candidate")
	// PointBFS fires at the start of every TQSP construction.
	PointBFS = faultinject.Register("core.bfs")
)

// PanicError reports a panic recovered during query evaluation. One
// panicking query — a bug in the hot path, or an injected fault —
// fails with this error instead of taking the process down; the engine
// remains usable for other queries.
type PanicError struct {
	// Op names the evaluation stage that panicked (e.g. "core.SP").
	Op string
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("core: panic during %s: %v", e.Op, e.Value)
}

func newPanicError(op string, v interface{}) *PanicError {
	return &PanicError{Op: op, Value: v, Stack: debug.Stack()}
}

// guard converts a panic on the calling goroutine into a *PanicError.
// Every public evaluation entry point defers it, so the engine API never
// panics on a per-query failure: callers get an error, the process and
// the engine's shared state survive. Named results are zeroed — a
// half-built answer must not escape.
func guard(op string, results *[]Result, err *error) {
	if r := recover(); r != nil {
		*results = nil
		*err = newPanicError(op, r)
	}
}

// recordPartial notes that evaluation stopped early (deadline or
// cancellation) while the candidate with the given score lower bound
// was next. Bounds are non-decreasing along the candidate stream, so
// every place not yet finalized — including the one in hand — scores at
// least bound: it is the Lemma-1-derived floor that makes the returned
// prefix sound (see markExact and DESIGN.md §9).
func recordPartial(stats *Stats, bound float64) {
	stats.Partial = true
	stats.ScoreBound = bound
}

// markExact fills Result.Exact after evaluation. A complete run is
// exact throughout. A partial run guarantees exactly the results whose
// score is strictly below Stats.ScoreBound: no unfinalized place can
// score lower, so those results — a prefix of the score-sorted list —
// occupy the same positions in the true top-k.
func markExact(rs []Result, stats *Stats) {
	for i := range rs {
		rs[i].Exact = !stats.Partial || rs[i].Score < stats.ScoreBound
	}
}
