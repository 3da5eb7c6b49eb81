// Package lru provides a small generic LRU cache behind the engine-level
// looseness cache (core.Engine), which reuses TQSP looseness values
// across queries sharing a keyword set.
package lru

import "sync/atomic"

// Cache is a fixed-capacity least-recently-used cache. Not safe for
// concurrent use — callers wrap it in a mutex or use Sharded — with one
// carve-out: PeekTouch may run concurrently with other PeekTouch calls
// (Sharded's shared-lock read path).
type Cache[K comparable, V any] struct {
	capacity int
	entries  map[K]*node[K, V]
	head     *node[K, V] // most recent
	tail     *node[K, V] // least recent
}

type node[K comparable, V any] struct {
	key        K
	value      V
	prev, next *node[K, V]
	// touched is the CLOCK reference bit set by PeekTouch (atomically,
	// so readers need no exclusive lock) and consumed by eviction: a
	// touched tail entry gets a second chance instead of eviction.
	touched atomic.Bool
}

// New returns a cache holding at most capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{capacity: capacity, entries: make(map[K]*node[K, V])}
}

// Peek returns the cached value without touching recency.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	n, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	return n.value, true
}

// PeekTouch returns the cached value and marks the entry recently used
// without mutating the recency list: the mark is an atomic reference bit
// the next eviction scan consumes (second chance), so any number of
// PeekTouch calls may run concurrently under a shared lock. Callers that
// need hit/miss accounting keep it themselves (Sharded's atomic
// counters). Entries never read through PeekTouch evict in exact LRU
// order.
func (c *Cache[K, V]) PeekTouch(key K) (V, bool) {
	n, ok := c.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	n.touched.Store(true)
	return n.value, true
}

// Put inserts or refreshes a value, evicting least recently used
// entries while more than capacity remain.
func (c *Cache[K, V]) Put(key K, value V) {
	if n, ok := c.entries[key]; ok {
		n.value = value
		c.moveToFront(n)
	} else {
		n := &node[K, V]{key: key, value: value}
		c.entries[key] = n
		c.pushFront(n)
	}
	for len(c.entries) > c.capacity {
		lru := c.tail
		// Second chance: a tail entry read via PeekTouch since it last
		// passed here rotates to the front instead of evicting. Each
		// iteration either evicts or clears one reference bit, so the
		// scan terminates after at most one full rotation.
		if lru.touched.Swap(false) {
			c.moveToFront(lru)
			continue
		}
		c.unlink(lru)
		delete(c.entries, lru.key)
	}
}

// Len returns the number of cached entries.
func (c *Cache[K, V]) Len() int { return len(c.entries) }

func (c *Cache[K, V]) pushFront(n *node[K, V]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *Cache[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *Cache[K, V]) moveToFront(n *node[K, V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}
