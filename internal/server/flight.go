package server

import (
	"sort"
	"strconv"
	"strings"
	"sync"

	"ksp"
)

// Search singleflight: concurrent /search requests that normalize to the
// same query share one evaluation. The first request to register becomes
// the leader — it holds its admission grant and runs the engine; every
// later identical request becomes a follower, returns its admission
// width immediately, and waits for the leader's result. A flight lives
// in the map only while its evaluation runs, so the mechanism never
// serves stale answers — it only collapses genuinely concurrent
// duplicates (a thundering herd behind a cache, a retry storm).
//
// Cancellation is waiter-counted: the engine evaluates against the
// flight's own cancel channel, and each participant that abandons the
// wait (client disconnect) leaves the flight — the leader through a
// context.AfterFunc on its request context, so no goroutine watches it.
// When the last participant leaves, the cancel channel closes and the
// engine winds down to a partial answer nobody will read. A flight with live followers keeps
// evaluating even after the leader's client is gone.

// flightKey normalizes a /search request to its semantic identity: two
// requests share a flight only when the engine would do identical work
// for both. Keywords sort (and de-blank) so order and spacing don't
// split flights; coordinates round to 1e-6 — far below any meaningful
// spatial resolution — so jittered clients still coalesce.
func flightKey(algo ksp.Algorithm, x, y float64, kws []string, k int, trees bool, maxDist float64) string {
	sorted := make([]string, 0, len(kws))
	for _, kw := range kws {
		if kw = strings.TrimSpace(kw); kw != "" {
			sorted = append(sorted, kw)
		}
	}
	sort.Strings(sorted)
	n := 64
	for _, kw := range sorted {
		n += 1 + len(kw)
	}
	b := make([]byte, 0, n)
	b = append(b, algo.String()...)
	b = append(b, '|')
	b = strconv.AppendFloat(b, x, 'f', 6, 64)
	b = append(b, '|')
	b = strconv.AppendFloat(b, y, 'f', 6, 64)
	b = append(b, "|k="...)
	b = strconv.AppendInt(b, int64(k), 10)
	b = append(b, "|t="...)
	b = strconv.AppendBool(b, trees)
	b = append(b, "|d="...)
	b = strconv.AppendFloat(b, maxDist, 'g', -1, 64)
	for _, kw := range sorted {
		b = append(b, 0)
		b = append(b, kw...)
	}
	return string(b)
}

// flight is one in-progress evaluation plus everyone waiting on it.
// res/stats/err are written once by the leader before done closes;
// followers only read them after <-done, so no lock guards them.
type flight struct {
	key    string
	done   chan struct{} // closed by finish, result fields are then set
	cancel chan struct{} // closed when the last participant leaves early

	res   []ksp.Result
	stats *ksp.Stats
	err   error

	waiters  int // guarded by flightGroup.mu
	finished bool
	stopped  bool
}

type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns the flight for key, creating it when none is running.
// The creator is the leader and must eventually call finish; everyone
// (leader included) holds one waiter slot and must call leave exactly
// once.
func (g *flightGroup) join(key string) (f *flight, leader bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f = g.m[key]; f != nil {
		f.waiters++
		return f, false
	}
	f = &flight{
		key:     key,
		done:    make(chan struct{}),
		cancel:  make(chan struct{}),
		waiters: 1,
	}
	g.m[key] = f
	return f, true
}

// leave releases one waiter slot. When the last one goes while the
// evaluation still runs, the flight's cancel channel closes (the engine
// returns a partial answer nobody reads) and the flight leaves the map
// so a fresh request starts clean rather than joining a dying run.
func (g *flightGroup) leave(f *flight) {
	g.mu.Lock()
	defer g.mu.Unlock()
	f.waiters--
	if f.waiters <= 0 && !f.finished && !f.stopped {
		f.stopped = true
		close(f.cancel)
		if g.m[f.key] == f {
			delete(g.m, f.key)
		}
	}
}

// finish publishes the leader's result and retires the flight: followers
// unblock, and the next identical request evaluates afresh.
func (g *flightGroup) finish(f *flight, res []ksp.Result, stats *ksp.Stats, err error) {
	g.mu.Lock()
	f.finished = true
	if g.m[f.key] == f {
		delete(g.m, f.key)
	}
	g.mu.Unlock()
	f.res, f.stats, f.err = res, stats, err
	close(f.done)
}
