package core

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"

	"ksp/internal/alpha"
	"ksp/internal/faultinject"
)

// Windowed, bound-ordered candidate scheduling (DESIGN.md §11).
//
// Without a window (Options.Window 1) the loop consumes places strictly
// one at a time in stream order, so θ tightens only as fast as that order
// happens to surface good places, and TQSP constructions run on
// candidates that cheap semantic bounds could have deferred or killed. The window scheduler batches the stream: it
// bulk-pops the next W candidates, screens the whole batch with zero BFS
// (Rule 1 reachability, α-radius bounds, looseness-cache facts, and the
// keywords-missing-at-root floor of Rule 2's lower bound), then emits the
// survivors in best-screen-bound-first order so θ drops early and the rest
// of the window dies without construction.
//
// Exactness: each emitted candidate carries bound = min(screenBound,
// resume), where resume is the stream's lower bound on everything not yet
// popped. Within a window the emitted screen bounds are non-decreasing
// (sorted) and every later window pops at a stream bound >= resume, so the
// emitted bound sequence is globally non-decreasing and lower-bounds the
// true score of every later candidate — exactly the invariant the loop's
// termination test (cand.bound >= θ) and the partial-result floor
// (recordPartial) rely on. Screen kills are sound because every screen
// value lower-bounds the true looseness (Lemmas 1, 3) and θ never
// increases: a candidate with screenBound >= θ_now scores >= θ_final and
// the strict insertion check would reject it anyway.

// Window size policy constants. Adaptive scheduling starts at windowInit,
// doubles while screens kill at least half of each batch (cheap screens
// are paying for themselves), and halves once the stream's resume bound
// crosses half of a finite θ (termination is near; a large window would
// only inflate deferred kills).
const (
	windowInit = 4
	windowMin  = 4
	windowMax  = 64
)

// resolveWindow maps Options.Window to a starting size and policy:
// 1 is the classic one-at-a-time loop (bit-for-bit legacy behavior,
// the window layer is bypassed entirely), >= 2 is a fixed size, and
// 0 (the default) or any negative value selects the adaptive policy.
func resolveWindow(o Options) (w int, adaptive bool) {
	switch {
	case o.Window == 1:
		return 1, false
	case o.Window >= 2:
		return o.Window, false
	default:
		return windowInit, true
	}
}

// windowTotals accumulates engine-lifetime window-scheduler counters,
// flushed once per query when the window source closes. Held behind a
// pointer on Engine so WithAlpha's shallow clone shares it (and because
// the atomics must not be copied).
type windowTotals struct {
	fills          atomic.Int64
	candidates     atomic.Int64
	screenKilled   atomic.Int64
	deferredKilled atomic.Int64
}

// WindowStats is the engine-lifetime window-scheduler summary served in
// the server's /stats document.
type WindowStats struct {
	// Fills counts window fills (bulk pops from the candidate stream).
	Fills int64 `json:"fills"`
	// Candidates counts places that entered a window.
	Candidates int64 `json:"candidates"`
	// ScreenKilled counts candidates killed by the zero-BFS screens at
	// fill time; DeferredKilled counts survivors later invalidated by a
	// θ drop before evaluation. Neither cost a TQSP construction.
	ScreenKilled   int64 `json:"screenKilled"`
	DeferredKilled int64 `json:"deferredKilled"`
}

// WindowStats returns the cumulative window-scheduler counters.
func (e *Engine) WindowStats() WindowStats {
	wt := e.winTotals
	if wt == nil {
		return WindowStats{}
	}
	return WindowStats{
		Fills:          wt.fills.Load(),
		Candidates:     wt.candidates.Load(),
		ScreenKilled:   wt.screenKilled.Load(),
		DeferredKilled: wt.deferredKilled.Load(),
	}
}

// windowCand is one stream candidate inside a fill batch: the place, its
// spatial distance, and the pop-time stream bound (MinScore(dist) for the
// distance-ordered stream, the α-bound for SP's best-first stream).
type windowCand struct {
	place uint32
	dist  float64
	bound float64
}

// screened is a window member that survived the screens, scheduled by its
// screen bound (a lower bound on its true score).
type screened struct {
	place       uint32
	dist        float64
	screenBound float64
}

// windowSource batches a placeStream: fill, screen, sort, emit.
type windowSource struct {
	e     *Engine
	inner placeStream
	pq    *prepQuery
	qv    *alpha.QueryView // nil unless rule2 screening and α enabled
	hk    *topK
	stats *Stats
	rule1 bool // screen with reachability (Rule 1)
	rule2 bool // screen with semantic lower bounds

	w        int
	adaptive bool

	buf    []windowCand // fill buffer, reused across windows
	win    []screened   // current window's survivors, sorted by screenBound
	at     int          // emission cursor into win
	resume float64      // stream bound covering everything beyond win
	done   bool
}

func newWindowSource(e *Engine, inner placeStream, pq *prepQuery, qv *alpha.QueryView, hk *topK, st *Stats, w int, adaptive bool, rule1, rule2 bool) *windowSource {
	//ksplint:ignore allocbound -- one source per query, inside TestAllocBudget's budget
	return &windowSource{
		e: e, inner: inner, pq: pq, qv: qv, hk: hk, stats: st,
		rule1: rule1, rule2: rule2,
		w: w, adaptive: adaptive,
		resume: math.Inf(-1),
	}
}

func (ws *windowSource) next() (candidate, bool) {
	for {
		if ws.at < len(ws.win) {
			th := ws.hk.theta()
			head := ws.win[ws.at]
			if head.screenBound < th {
				ws.at++
				b := head.screenBound
				if ws.resume < b {
					b = ws.resume
				}
				return candidate{place: head.place, dist: head.dist, bound: b}, true
			}
			// Deferred kill: θ dropped since this window was screened, and
			// the survivors are sorted — the whole remainder is dead.
			ws.stats.WindowDeferredKilled += int64(len(ws.win) - ws.at)
			ws.at = len(ws.win)
		}
		if ws.done {
			return candidate{}, false
		}
		// The resume bound lower-bounds every unpopped candidate: once it
		// reaches θ the stream is finished, exactly like the loop's
		// termination test with the resume distance standing in for the
		// next GETNEXT distance.
		if ws.resume >= ws.hk.theta() {
			ws.done = true
			return candidate{}, false
		}
		ws.fill()
	}
}

// fill pops the next window, screens it, and sorts the survivors by their
// screen bounds (stable, so stream order breaks ties and a screenless
// window — BSP — emits in exactly the classic order).
func (ws *windowSource) fill() {
	faultinject.Fire(PointWindowFill)
	batch, resume := ws.inner.fillWindow(ws.w, ws.buf[:0])
	ws.buf = batch
	ws.resume = resume
	if len(batch) == 0 {
		ws.done = true
		return
	}
	ws.stats.WindowsFilled++
	ws.stats.WindowCandidates += int64(len(batch))
	ws.e.noteWindowFill(len(batch))

	th := ws.hk.theta()
	ws.win = ws.win[:0]
	ws.at = 0
	killed := 0
	for _, c := range batch {
		sb := ws.screenBound(c)
		if sb >= th {
			killed++
			ws.stats.WindowScreenKilled++
			continue
		}
		ws.win = append(ws.win, screened{place: c.place, dist: c.dist, screenBound: sb})
	}
	slices.SortStableFunc(ws.win, func(a, b screened) int { return cmp.Compare(a.screenBound, b.screenBound) })

	if ws.adaptive {
		switch {
		case killed*2 >= len(batch) && ws.w < windowMax:
			ws.w *= 2
			if ws.w > windowMax {
				ws.w = windowMax
			}
		case !math.IsInf(th, 1) && ws.resume >= th/2 && ws.w > windowMin:
			ws.w /= 2
			if ws.w < windowMin {
				ws.w = windowMin
			}
		}
	}
}

// screenBound computes a zero-BFS lower bound on c's true score. +Inf
// means a hard kill (Rule 1, or a cached exact "unqualified" fact).
func (ws *windowSource) screenBound(c windowCand) float64 {
	if ws.rule1 && ws.e.unqualified(c.place, ws.pq, ws.stats) {
		return math.Inf(1)
	}
	if !ws.rule2 {
		return c.bound
	}
	// Looseness floor from keywords absent at the root itself: each one
	// sits at graph distance >= 1, so L >= 1 + missing (the d=0 prefix of
	// Rule 2's dynamic bound, computable from Mq.ψ without any BFS).
	m := ws.pq.numKeywords()
	loose := 1.0
	if m > 0 {
		missing := m - popcount(ws.pq.mq.get(c.place)&ws.pq.full)
		loose = 1 + float64(missing)
	}
	// α-radius word neighbourhood bound (Lemma 3), when the index is
	// loaded for this query.
	if ws.qv != nil {
		if ab := ws.qv.PlaceBound(c.place); ab > loose {
			loose = ab
		}
	}
	// Looseness-cache facts: an exact value decides outright; a stored
	// Rule-2 lower bound tightens the floor. Raw probe — the per-query
	// cache counters belong to the evaluation in the loop, which probes
	// again only for candidates that survive.
	if lc := ws.e.loose; lc != nil && ws.pq.sig != "" {
		if ent, ok := lc.c.Get(looseKey{place: c.place, sig: ws.pq.sig}); ok {
			if ent.exact {
				if math.IsInf(ent.loose, 1) {
					return math.Inf(1) // provably unqualified
				}
				if ent.loose > loose {
					loose = ent.loose
				}
			} else if ent.loose > loose {
				loose = ent.loose
			}
		}
	}
	sb := ws.e.Rank.Score(loose, c.dist)
	if sb < c.bound {
		sb = c.bound
	}
	return sb
}

// close flushes the window totals into the engine's cumulative counters
// and counts the survivors the consumer never asked for as deferred kills
// (it stopped because θ made them unreachable).
func (ws *windowSource) close() {
	if ws.at < len(ws.win) {
		ws.stats.WindowDeferredKilled += int64(len(ws.win) - ws.at)
		ws.at = len(ws.win)
	}
	if wt := ws.e.winTotals; wt != nil {
		wt.fills.Add(ws.stats.WindowsFilled)
		wt.candidates.Add(ws.stats.WindowCandidates)
		wt.screenKilled.Add(ws.stats.WindowScreenKilled)
		wt.deferredKilled.Add(ws.stats.WindowDeferredKilled)
	}
}
