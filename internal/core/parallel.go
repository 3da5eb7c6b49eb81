package core

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ksp/internal/faultinject"
)

// atomicFloat64 is a float64 with atomic load and store.
type atomicFloat64 struct{ bits atomic.Uint64 }

func (a *atomicFloat64) store(v float64) { a.bits.Store(math.Float64bits(v)) }
func (a *atomicFloat64) load() float64   { return math.Float64frombits(a.bits.Load()) }

// pipeTheta is the θ the pipeline's producer and workers read: the
// finalizer's published Hk threshold (local, stored after each top-k
// insertion), capped by the ceiling of the gather-wide Bound when the
// query runs under one — that ceiling also drops between insertions, as
// other tiles offer. Both only decrease, so any stale read is an upper
// bound on the exact serial θ — the soundness hinge of DESIGN.md §8.
type pipeTheta struct {
	local  atomicFloat64
	shared *Bound
}

func (p *pipeTheta) load() float64 { return p.shared.limit(p.local.load()) }

// runParallel evaluates the query with a three-stage pipeline that runs
// runSerial's steps and returns bit-identical results (the argument is
// laid out in DESIGN.md §8; the scheduler in §13):
//
//	producer  — drives the candidate stream in serial order, stopping
//	            early when a bound reaches the (stale) shared θ, and
//	            routes each candidate into a per-worker bounded deque;
//	workers   — run the evaluate step concurrently, under the Rule-2
//	            threshold derived from the shared θ, which is always >=
//	            the exact serial threshold, so speculative work can be
//	            wasted but never wrong. An idle worker steals from the
//	            busiest peer's deque — which candidate runs on which
//	            worker is immaterial because the next stage
//	            re-serializes every decision;
//	finalizer — this goroutine: admits and offers the candidates in
//	            production order against the true Hk, and publishes θ to
//	            the atomic.
func (e *Engine) runParallel(alg *algorithm, pq *prepQuery, opts Options, hk *topK, stats *Stats, workers int, rule1, rule2 bool) error {
	root := opts.Trace.Root()
	theta := &pipeTheta{shared: hk.shared}
	theta.local.store(math.Inf(1))

	prodStats := &Stats{}
	src, err := e.newStream(alg, pq, opts, prodStats, theta.load, rule1, rule2)
	if err != nil {
		return err
	}
	rule1 = rule1 && src.win == nil // a window screens with Rule 1 itself

	depth := e.resolveDepth(opts, workers)
	deques := newStealDeques(workers, depth)
	ordered := make(chan *candidate, depth*workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }
	pipe := &pipeFailure{}
	pipeStart := time.Now()

	// Producer. Candidates enter a deque before ordered, so every
	// candidate the finalizer waits on is guaranteed to reach a worker. A
	// panic in the candidate source fails this query, not the process:
	// the deferred closes double as the shutdown signal.
	go func() {
		ps := root.Child("produce")
		var produced int64
		defer func() { ps.SetInt("candidates", produced); ps.End() }()
		defer deques.closeAll()
		defer close(ordered)
		defer func() {
			if r := recover(); r != nil {
				pipe.fail(newPanicError("core.parallel.producer", r))
				halt()
			}
		}()
		for {
			faultinject.Fire(PointProducer)
			cand, ok := src.next()
			if !ok {
				return
			}
			// Speculation cut: bounds are non-decreasing, so once one
			// reaches even the stale θ (>= exact θ), no later candidate
			// can be added and the exact finalizer would stop here too.
			if cand.bound >= theta.load() {
				return
			}
			c := new(candidate)
			*c = cand
			c.ready = make(chan struct{})
			produced++
			if !deques.dispatch(c, stop) {
				return
			}
			select {
			case ordered <- c:
			case <-stop:
				return
			}
		}
	}()

	// Workers. Each owns one padded slot (Stats + scheduler counters);
	// slots are written by exactly one worker, so the padding is what
	// keeps the per-candidate counter increments off shared cache lines.
	var wg sync.WaitGroup
	slots := make([]paddedSlot, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			slot := &slots[w].workerSlot
			ws := &slot.stats
			defer wg.Done()
			wspan := root.Child("worker")
			wspan.SetInt("idx", int64(w))
			defer func() {
				wspan.SetInt("steals", slot.steals)
				wspan.SetInt("ownPops", slot.ownPops)
				wspan.SetInt("idleMicros", slot.idle.Microseconds())
				wspan.End()
			}()
			// cur is the candidate taken from a deque whose ready channel
			// has not closed yet; the recovery path must close it, or the
			// finalizer would block forever on a candidate no worker holds.
			var cur *candidate
			defer func() {
				// Per-candidate panics are converted inside evalCandidate;
				// this catches a panic outside that window (e.g. searcher
				// setup). The dying worker must keep draining the deques —
				// every peer may be dying too — closing every ready it
				// takes, or the finalizer would block forever.
				if r := recover(); r != nil {
					pipe.fail(newPanicError("core.parallel.worker", r))
					halt()
					if cur != nil {
						close(cur.ready)
					}
					for {
						c, _, ok := deques.acquire(w, stop, slot)
						if !ok {
							return
						}
						close(c.ready)
					}
				}
			}()
			s := newSearcher(e, pq, ws, opts.CollectTrees)
			defer s.release()
			if rule2 {
				s.liveTheta = theta
			}
			for {
				c, stolen, ok := deques.acquire(w, stop, slot)
				if !ok {
					return
				}
				cur = c
				select {
				case <-stop:
					// Finalizer gave up; it no longer reads results, but
					// ready must still close so nothing can block on it.
					close(c.ready)
					cur = nil
					continue
				default:
				}
				cs := wspan.Child("candidate")
				cs.SetInt("place", int64(c.place))
				cs.SetFloat("dist", c.dist)
				if stolen {
					cs.SetStr("via", "steal")
				}
				s.curSpan = cs
				e.evalCandidate(s, c, rule1, rule2, theta)
				s.curSpan = nil
				cs.End()
				close(c.ready)
				cur = nil
			}
		}(w)
	}

	// Finalizer: strictly in production order, so every θ a worker ever
	// observes derives from a finalized prefix of earlier candidates. It
	// runs on the caller's goroutine but inside its own recovery scope:
	// a finalizer panic must still halt and drain the pipeline before
	// the error surfaces, or producer and workers would leak.
	lim := limiterFor(opts)
	fin := root.Child("finalize")
	qerr := func() (err error) {
		defer fin.End()
		defer func() {
			if r := recover(); r != nil {
				err = newPanicError("core.parallel.finalizer", r)
			}
		}()
		terminated := false
		for c := range ordered {
			if terminated {
				continue // drain so the producer can unblock and exit
			}
			<-c.ready
			if c.err != nil {
				// A worker panicked on this candidate; fail the query but
				// keep draining so the pipeline shuts down cleanly.
				err = c.err
				terminated = true
				halt()
				continue
			}
			faultinject.Fire(PointFinalizer)
			if !admit(c.bound, hk, stats, lim) {
				terminated = true
				halt()
				continue
			}
			if e.offer(hk, c) {
				theta.local.store(hk.theta())
			}
		}
		return err
	}()
	halt()
	// Drain whatever the finalizer left behind (it drains fully on the
	// normal path; after a finalizer panic candidates may remain).
	for range ordered {
	}
	wg.Wait()
	src.close()

	var steals, ownPops int64
	var idle time.Duration
	for i := range slots {
		slot := &slots[i].workerSlot
		stats.Add(&slot.stats)
		steals += slot.steals
		ownPops += slot.ownPops
		idle += slot.idle
	}
	stats.Steals += steals
	stats.OwnPops += ownPops
	stats.WorkerIdle += idle
	// Worker stats may carry TimedOut/Cancelled only via Add's flag merge;
	// they never set them — keep the flags the finalizer recorded.
	stats.Add(prodStats)

	wall := time.Since(pipeStart)
	if st := e.sched; st != nil {
		st.queries.Add(1)
		st.steals.Add(steals)
		st.ownPops.Add(ownPops)
		st.idleNanos.Add(int64(idle))
	}
	if opts.PipelineDepth <= 0 {
		e.tuneDepth(depth, workers, wall, idle)
	}
	e.noteSched(depth, idle)
	if qerr == nil {
		qerr = pipe.get()
	}
	return qerr
}

// pipeFailure records the first asynchronous pipeline error (a producer
// or worker goroutine panic) for the finalizer to return.
type pipeFailure struct {
	mu  sync.Mutex
	err error
}

func (p *pipeFailure) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
}

func (p *pipeFailure) get() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// evalCandidate is the worker body: the evaluate step under the
// pipeline's θ. A panic — a bug in the hot path or an injected fault —
// is captured into the candidate and forwarded to the finalizer, failing
// only this query.
func (e *Engine) evalCandidate(s *searcher, c *candidate, rule1, rule2 bool, theta *pipeTheta) {
	defer func() {
		if r := recover(); r != nil {
			c.err = newPanicError("core.parallel.worker", r)
		}
	}()
	faultinject.Fire(PointWorker)
	e.evaluate(s, c, rule1, rule2, theta.load)
}
