package lru

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Sharded is a concurrency-safe LRU built from independently locked
// Cache shards. Keys are routed by a caller-supplied hash (generic keys
// cannot be hashed portably otherwise), so a well-spread hash keeps lock
// contention proportional to 1/shards. Hits take only a shared
// (read) lock: Get marks recency through the cache's atomic CLOCK
// reference bit (PeekTouch) instead of rewriting the LRU list, so
// concurrent readers of a hot shard never serialize. Recency is
// therefore second-chance-approximate per shard, which is close enough
// to global LRU for cache workloads.
type Sharded[K comparable, V any] struct {
	shards []shard[K, V]
	hash   func(K) uint32
	hits   atomic.Int64
	misses atomic.Int64
}

// shardAlign is the false-sharing alignment unit for shards: 128 bytes
// covers the spatial-prefetcher pair of 64-byte lines on x86 and the
// 128-byte lines of some arm64 parts.
const shardAlign = 128

// shardHeader mirrors shard's non-pad fields for pad sizing. The pad
// must be computed from a non-generic type (unsafe.Sizeof over a type
// parameterized field is not a compile-time constant inside generic
// code), and the mutex and cache pointer have the same size for every
// K, V. TestShardPadding pins the mirror to the real layout.
type shardHeader struct {
	mu sync.RWMutex
	c  unsafe.Pointer
}

type shard[K comparable, V any] struct {
	mu sync.RWMutex
	c  *Cache[K, V]
	// Pad to a shardAlign multiple so adjacent shards in the array never
	// share a cache line. Computed from the real header size, so field
	// growth cannot silently re-introduce sharing (the old hand-counted
	// [40]byte pad assumed a 24-byte header and a 64-byte line).
	_ [(shardAlign - unsafe.Sizeof(shardHeader{})%shardAlign) % shardAlign]byte
}

// NewSharded returns a Sharded cache of the given shard count (rounded
// up to a power of two, minimum 1) whose shards' capacities sum to
// capacity; hash routes keys to shards.
func NewSharded[K comparable, V any](shards, capacity int, hash func(K) uint32) *Sharded[K, V] {
	n := 1
	for n < shards {
		n <<= 1
	}
	s := &Sharded[K, V]{shards: make([]shard[K, V], n), hash: hash}
	for i := range s.shards {
		s.shards[i].c = New[K, V](capacity / n)
	}
	return s
}

func (s *Sharded[K, V]) shardFor(key K) *shard[K, V] {
	return &s.shards[s.hash(key)&uint32(len(s.shards)-1)]
}

// Get returns the cached value, tracking hits/misses atomically. Hits
// touch only the shard's read lock plus one atomic bit — the hot path
// of the engine's looseness cache under parallel evaluation.
func (s *Sharded[K, V]) Get(key K) (V, bool) {
	sh := s.shardFor(key)
	sh.mu.RLock()
	v, ok := sh.c.PeekTouch(key)
	sh.mu.RUnlock()
	if ok {
		s.hits.Add(1)
	} else {
		s.misses.Add(1)
	}
	return v, ok
}

// Put inserts or refreshes a value.
func (s *Sharded[K, V]) Put(key K, value V) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	sh.c.Put(key, value)
	sh.mu.Unlock()
}

// Update applies an atomic read-modify-write under the shard lock: f
// receives the current value (ok reports presence) and returns the value
// to store, or store=false to leave the entry untouched. Used for merge
// semantics like "keep the tighter of two lower bounds".
func (s *Sharded[K, V]) Update(key K, f func(old V, ok bool) (V, bool)) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	old, ok := sh.c.Peek(key)
	if v, store := f(old, ok); store {
		sh.c.Put(key, v)
	}
	sh.mu.Unlock()
}

// Len returns the total entry count across shards.
func (s *Sharded[K, V]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		n += sh.c.Len()
		sh.mu.RUnlock()
	}
	return n
}

// Stats returns cumulative hit and miss counts.
func (s *Sharded[K, V]) Stats() (hits, misses int64) {
	return s.hits.Load(), s.misses.Load()
}
