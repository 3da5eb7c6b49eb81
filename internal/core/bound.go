package core

import (
	"math"
	"sync"
)

// Bound is the one top-k threshold several cooperating evaluations of
// the same query share — the tiles of a scatter-gather (DESIGN.md
// §14.2). It tracks θ, the kth-best score among the distinct places
// offered so far, +Inf until k places have been offered. Every offer is
// a genuine (place, score) pair of the query, so θ can only
// over-estimate the final kth-best score and only ever decreases; a
// place scoring strictly above it has k strictly better competitors and
// can be discarded by whoever holds it. Safe for concurrent use.
type Bound struct {
	k int
	// theta is the current kth-best offered score; ceiling is the next
	// float64 above it — what limit hands the engines, so that a place
	// scoring exactly θ still passes their strict checks.
	theta, ceiling atomicFloat64
	established    chan struct{}

	mu   sync.Mutex
	seen map[uint32]struct{}
	best []float64 // max-heap of the k best offered scores
}

// NewBound returns an empty bound for a top-k query.
func NewBound(k int) *Bound {
	b := &Bound{k: k, established: make(chan struct{}), seen: make(map[uint32]struct{})}
	b.theta.store(math.Inf(1))
	b.ceiling.store(math.Inf(1))
	return b
}

// Theta returns the kth-best offered score, +Inf before k distinct
// places were offered.
func (b *Bound) Theta() float64 { return b.theta.load() }

// limit returns th lowered to the bound's ceiling; a nil bound leaves th
// alone, so engines without one pay a nil check.
func (b *Bound) limit(th float64) float64 {
	if b != nil {
		if c := b.ceiling.load(); c < th {
			return c
		}
	}
	return th
}

// Established is closed when the kth distinct place is offered, i.e.
// when Theta first becomes finite.
func (b *Bound) Established() <-chan struct{} { return b.established }

// Offer records that place scores score. A place counts once however
// often it is offered — a hedged or retried tile re-offers its places.
func (b *Bound) Offer(place uint32, score float64) {
	if score > b.theta.load() {
		return // cannot lower the kth-best; not worth the lock
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, dup := b.seen[place]; dup {
		return
	}
	b.seen[place] = struct{}{}
	h := b.best
	if len(h) < b.k {
		// Sift up into the max-heap.
		h = append(h, score)
		for j := len(h) - 1; j > 0; {
			i := (j - 1) / 2
			if h[i] >= h[j] {
				break
			}
			h[i], h[j] = h[j], h[i]
			j = i
		}
		b.best = h
		if len(h) == b.k {
			b.publish(h[0])
			close(b.established)
		}
		return
	}
	if score >= h[0] {
		return
	}
	// Replace the worst of the k best and sift down.
	h[0] = score
	for i := 0; ; {
		j := 2*i + 1
		if j >= len(h) {
			break
		}
		if j+1 < len(h) && h[j+1] > h[j] {
			j++
		}
		if h[i] >= h[j] {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	b.publish(h[0])
}

func (b *Bound) publish(kth float64) {
	b.theta.store(kth)
	b.ceiling.store(math.Nextafter(kth, math.Inf(1)))
}
