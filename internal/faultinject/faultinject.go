// Package faultinject provides named, deterministic fault-injection
// points for chaos testing the query engine and the HTTP server.
//
// Production code marks interesting execution points with
//
//	faultinject.Fire(pointName)
//
// where pointName was registered once at package init via Register. With
// no plan activated — the production default — Fire is a single atomic
// pointer load and a branch, cheap enough for hot loops. Chaos tests
// build a Plan (a seeded set of faults bound to points), Activate it,
// run the workload, and Deactivate.
//
// Faults are deterministic: probabilistic triggers draw from the plan's
// seeded generator, and after-N-calls triggers count Fire invocations of
// their point, so a failing chaos run replays exactly from its seed (up
// to goroutine interleaving of the counted calls themselves).
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Action selects what a fault does when it triggers.
type Action int

const (
	// Panic panics with an *Injected value.
	Panic Action = iota
	// Stall sleeps for Fault.StallFor.
	Stall
	// Call invokes Fault.Func (e.g. closing a cancellation channel).
	Call
)

// Injected is the panic value of a Panic fault, so recovery sites can
// tell injected panics from real bugs.
type Injected struct {
	Point string
}

func (p *Injected) Error() string { return "faultinject: injected panic at " + p.Point }

// Fault arms one action at one point.
type Fault struct {
	Point  string
	Action Action
	// StallFor is the Stall sleep duration.
	StallFor time.Duration
	// Func is the Call callback.
	Func func()
	// Prob triggers the fault on each eligible call with this
	// probability, drawn from the plan's seeded generator. 0 means
	// always (the deterministic default).
	Prob float64
	// AfterN skips the first N-1 calls of the point: the fault becomes
	// eligible on the Nth call. 0 behaves as 1 (eligible immediately).
	AfterN int64
	// Times caps how often the fault triggers; 0 means unlimited.
	Times int64
}

type armedFault struct {
	Fault
	calls int64 // Fire invocations of the point seen by this fault
	fired int64 // times the fault actually triggered
}

// Plan is a seeded set of armed faults. Build with NewPlan/Add, then
// Activate. A Plan must not be modified while active.
type Plan struct {
	mu     sync.Mutex
	rng    *rand.Rand
	faults map[string][]*armedFault
}

// NewPlan returns an empty plan whose probabilistic draws derive from
// seed.
func NewPlan(seed int64) *Plan {
	return &Plan{rng: rand.New(rand.NewSource(seed)), faults: make(map[string][]*armedFault)}
}

// Add arms f and returns the plan for chaining. Unknown points are
// rejected so a typo cannot silently arm nothing.
func (p *Plan) Add(f Fault) *Plan {
	if !isRegistered(f.Point) {
		panic(fmt.Sprintf("faultinject: Add on unregistered point %q", f.Point))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.faults[f.Point] = append(p.faults[f.Point], &armedFault{Fault: f})
	return p
}

// Fired reports how many times faults at point have triggered.
func (p *Plan) Fired(point string) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, f := range p.faults[point] {
		n += f.fired
	}
	return n
}

// FiredTotal reports how many times any fault has triggered.
func (p *Plan) FiredTotal() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	var n int64
	for _, fs := range p.faults {
		for _, f := range fs {
			n += f.fired
		}
	}
	return n
}

// active is the global plan pointer; nil (the default) keeps every Fire
// call on its two-instruction fast path.
var active atomic.Pointer[Plan]

// Activate installs p as the global plan. Only one plan is active at a
// time; tests pair Activate with a deferred Deactivate.
func Activate(p *Plan) { active.Store(p) }

// Deactivate removes the active plan.
func Deactivate() { active.Store(nil) }

// Enabled reports whether a plan is active.
func Enabled() bool { return active.Load() != nil }

// Fire triggers any faults armed at point. With no active plan it costs
// one atomic load; production call sites need no build tag.
func Fire(point string) {
	p := active.Load()
	if p == nil {
		if strictPoints && !isRegistered(point) {
			panic("faultinject: Fire on unregistered point " + point)
		}
		return
	}
	p.fire(point)
}

// fire applies the armed faults at point. It runs only when a plan is
// active, i.e. under tests; production queries stop at Fire's nil check.
func (p *Plan) fire(point string) {
	var stall time.Duration
	var calls []func()
	var panicWith *Injected

	p.mu.Lock()
	for _, f := range p.faults[point] {
		f.calls++
		afterN := f.AfterN
		if afterN < 1 {
			afterN = 1
		}
		if f.calls < afterN {
			continue
		}
		if f.Times > 0 && f.fired >= f.Times {
			continue
		}
		if f.Prob > 0 && p.rng.Float64() >= f.Prob {
			continue
		}
		f.fired++
		switch f.Action {
		case Panic:
			panicWith = &Injected{Point: point}
		case Stall:
			if f.StallFor > stall {
				stall = f.StallFor
			}
		case Call:
			if f.Func != nil {
				calls = append(calls, f.Func)
			}
		}
	}
	p.mu.Unlock()

	// Side effects run outside the plan lock: a stalling or panicking
	// fault must not serialize every other injection point behind it.
	for _, fn := range calls {
		fn()
	}
	if stall > 0 {
		time.Sleep(stall)
	}
	if panicWith != nil {
		panic(panicWith)
	}
}

// --- point registry ---

var (
	regMu  sync.Mutex
	regSet = make(map[string]bool)
)

// Register declares an injection point and returns its name, so call
// sites keep the registration next to the constant:
//
//	var pointFoo = faultinject.Register("pkg.foo")
//
// Registering the same name twice panics: point names are global.
func Register(name string) string {
	regMu.Lock()
	defer regMu.Unlock()
	if regSet[name] {
		panic("faultinject: duplicate point " + name)
	}
	regSet[name] = true
	return name
}

func isRegistered(name string) bool {
	regMu.Lock()
	defer regMu.Unlock()
	return regSet[name]
}

// Points returns every registered point name, sorted. Chaos suites
// iterate this to prove coverage of all points compiled into the binary.
func Points() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(regSet))
	for name := range regSet {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
