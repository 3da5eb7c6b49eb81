package server

import (
	"sync"
	"time"
)

// admission is the search admission controller: a counting semaphore
// over concurrent searches plus a bounded FIFO wait queue with a
// per-request timeout. Requests beyond queue capacity shed immediately
// (429); queued requests that outwait the timeout shed with 503. Both
// carry Retry-After.
type admission struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	maxQueue int
	waiters  []*admWaiter

	// Cumulative counters for /stats (guarded by mu).
	admitted        uint64
	rejectedBusy    uint64 // queue full → 429
	rejectedTimeout uint64 // queue wait expired → 503
}

type admWaiter struct {
	ready chan struct{} // closed when granted
	// granted marks that release handed this waiter a slot; the waiter
	// may have raced with its own timeout and must then keep the grant
	// rather than leak the slot.
	granted bool
}

type admitStatus int

const (
	admitOK admitStatus = iota
	admitBusy
	admitTimeout
	admitGone // client disconnected while queued
)

func newAdmission(capacity, maxQueue int) *admission {
	if capacity < 1 {
		capacity = 1
	}
	if maxQueue < 0 {
		maxQueue = 0
	}
	return &admission{capacity: capacity, maxQueue: maxQueue}
}

// acquire blocks until a slot is granted, the wait budget runs out, or
// done closes. On admitOK the caller must call the returned release
// exactly once.
func (a *admission) acquire(done <-chan struct{}, wait time.Duration) (func(), admitStatus) {
	a.mu.Lock()
	// FIFO: the fast path only applies with an empty queue, or late
	// requests would overtake the queued ones.
	if len(a.waiters) == 0 && a.inUse < a.capacity {
		a.inUse++
		a.admitted++
		a.mu.Unlock()
		return a.release, admitOK
	}
	if len(a.waiters) >= a.maxQueue {
		a.rejectedBusy++
		a.mu.Unlock()
		return nil, admitBusy
	}
	w := &admWaiter{ready: make(chan struct{})}
	a.waiters = append(a.waiters, w)
	a.mu.Unlock()

	timer := time.NewTimer(wait)
	defer timer.Stop()
	select {
	case <-w.ready:
		return a.release, admitOK
	case <-timer.C:
		if a.abandon(w, true) {
			return a.release, admitOK
		}
		return nil, admitTimeout
	case <-done:
		if a.abandon(w, false) {
			return a.release, admitOK
		}
		return nil, admitGone
	}
}

// abandon removes w from the queue after a timeout or disconnect. It
// reports whether release granted w concurrently — the grant then
// belongs to the caller.
func (a *admission) abandon(w *admWaiter, timedOut bool) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if w.granted {
		return true
	}
	for i, q := range a.waiters {
		if q == w {
			a.waiters = append(a.waiters[:i], a.waiters[i+1:]...)
			break
		}
	}
	if timedOut {
		a.rejectedTimeout++
	}
	return false
}

// release frees one slot, handing it straight to the oldest waiter if
// there is one.
func (a *admission) release() {
	a.mu.Lock()
	if len(a.waiters) > 0 {
		w := a.waiters[0]
		a.admitted++
		w.granted = true
		a.waiters = a.waiters[1:]
		close(w.ready)
	} else {
		a.inUse--
	}
	a.mu.Unlock()
}

// AdmissionSection reports the admission controller in /stats.
type AdmissionSection struct {
	// Capacity is the number of searches the server admits
	// concurrently; InUse and Queued are instantaneous.
	Capacity int `json:"capacity"`
	InUse    int `json:"inUse"`
	Queued   int `json:"queued"`
	// Admitted counts granted requests; RejectedBusy counts 429s (queue
	// full); RejectedTimeout counts 503s (queue wait expired).
	Admitted        uint64 `json:"admitted"`
	RejectedBusy    uint64 `json:"rejectedBusy"`
	RejectedTimeout uint64 `json:"rejectedTimeout"`
}

func (a *admission) snapshot() AdmissionSection {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AdmissionSection{
		Capacity:        a.capacity,
		InUse:           a.inUse,
		Queued:          len(a.waiters),
		Admitted:        a.admitted,
		RejectedBusy:    a.rejectedBusy,
		RejectedTimeout: a.rejectedTimeout,
	}
}
