package core

import (
	"math"
	"sync/atomic"

	"ksp/internal/lru"
)

// looseCache is the engine-level cross-query looseness cache. The paper
// observes (Section 7) that L(Tp) depends only on the place and the
// query keyword set — not on the query location, k, α, or the spatial
// index — so on an immutable dataset it is perfectly reusable across
// queries. Two kinds of facts are stored per (place, term-set) key:
//
//   - exact: the true looseness (possibly +Inf for a place that cannot
//     reach every keyword). An exact hit replaces the BFS entirely.
//   - lower bound: the dynamic bound LB(Tp) = 1 + Σfound + (d+1)·|B|
//     reached when a previous construction was aborted by Pruning Rule 2
//     at the pop of a depth-d vertex (see getSemanticPlace). The bound is
//     a graph-determined fact (Lemma 1: the true looseness is >= LB no
//     matter which threshold caused the abort), so a later query may
//     prune without a BFS whenever its own threshold lw <= LB.
type looseCache struct {
	c *lru.Sharded[looseKey, looseEntry]
	// hits/boundHits/misses aggregate across all queries for /stats
	// (per-query numbers live in Stats).
	hits      atomic.Int64
	boundHits atomic.Int64
	misses    atomic.Int64
}

// looseKey identifies a cached looseness: the place and the canonical
// (sorted, packed) signature of the resolved query term set. The
// signature is the full term list, not a hash — collisions would
// silently corrupt results, so there are none.
type looseKey struct {
	place uint32
	sig   string
}

// looseEntry is the cached fact: the exact looseness, or a lower bound
// on it when exact is false.
type looseEntry struct {
	loose float64
	exact bool
}

func looseHash(k looseKey) uint32 {
	h := k.place*2654435761 + 0x9e3779b9
	for i := 0; i < len(k.sig); i++ {
		h = (h ^ uint32(k.sig[i])) * 16777619
	}
	return h
}

// looseCacheShards balances lock contention against per-shard LRU
// quality for the concurrent queries a single machine runs.
const looseCacheShards = 16

// EnableLoosenessCache attaches a looseness cache of the given entry
// capacity to the engine (<= 0 selects DefaultLoosenessCacheEntries).
// Safe to call once, before serving queries. Results are unaffected —
// only TQSP constructions are skipped — and the cache is shared by
// WithAlpha clones.
func (e *Engine) EnableLoosenessCache(capacity int) {
	if capacity <= 0 {
		capacity = DefaultLoosenessCacheEntries
	}
	e.loose = &looseCache{
		c: lru.NewSharded[looseKey, looseEntry](looseCacheShards, capacity, looseHash),
	}
}

// DefaultLoosenessCacheEntries is the capacity EnableLoosenessCache
// uses for non-positive arguments.
const DefaultLoosenessCacheEntries = 1 << 16

// CacheStats summarizes the engine's looseness cache for monitoring.
type CacheStats struct {
	// Hits counts exact hits (BFS skipped, exact L returned); BoundHits
	// counts prunes from a stored Rule-2 lower bound; Misses counts
	// lookups that fell through to construction.
	Hits      int64 `json:"hits"`
	BoundHits int64 `json:"boundHits"`
	Misses    int64 `json:"misses"`
	// Entries is the current cached fact count.
	Entries int `json:"entries"`
}

// HitRate returns the fraction of lookups served from the cache.
func (cs CacheStats) HitRate() float64 {
	total := cs.Hits + cs.BoundHits + cs.Misses
	if total == 0 {
		return 0
	}
	return float64(cs.Hits+cs.BoundHits) / float64(total)
}

// CacheStats reports the looseness cache's cumulative counters; ok is
// false when the cache is disabled.
func (e *Engine) CacheStats() (CacheStats, bool) {
	if e.loose == nil {
		return CacheStats{}, false
	}
	return CacheStats{
		Hits:      e.loose.hits.Load(),
		BoundHits: e.loose.boundHits.Load(),
		Misses:    e.loose.misses.Load(),
		Entries:   e.loose.c.Len(),
	}, true
}

// store persists what a construction learned: exact facts overwrite,
// lower bounds only tighten (and never displace an exact fact).
func (lc *looseCache) store(key looseKey, lb float64, exact bool) {
	lc.c.Update(key, func(old looseEntry, ok bool) (looseEntry, bool) {
		if exact {
			return looseEntry{loose: lb, exact: true}, true
		}
		if ok && (old.exact || old.loose >= lb) {
			return old, false
		}
		return looseEntry{loose: lb}, true
	})
}

// semanticPlace is getSemanticPlace behind the looseness cache: an
// exact hit returns the true L(Tp) with no BFS; a stored lower bound
// >= lw prunes with no BFS (sound: the true looseness is >= the bound,
// so the uncached algorithm would have discarded the place too); anything
// else falls through to construction and persists what it learned.
// Tree collection bypasses the cache — the tree itself must be built.
func (s *searcher) semanticPlace(p uint32, lw float64) (float64, *Tree) {
	lc := s.e.loose
	if lc == nil || s.collect {
		return s.getSemanticPlace(p, lw)
	}
	key := looseKey{place: p, sig: s.pq.sig}
	if ent, ok := lc.c.Get(key); ok {
		if ent.exact {
			lc.hits.Add(1)
			s.stats.CacheHits++
			s.curSpan.SetStr("cache", "hit")
			return ent.loose, nil
		}
		if ent.loose >= lw {
			lc.boundHits.Add(1)
			s.stats.CacheBoundHits++
			s.stats.PrunedDynamicBound++
			s.curSpan.SetStr("cache", "bound")
			return math.Inf(1), nil
		}
	}
	lc.misses.Add(1)
	s.stats.CacheMisses++
	s.curSpan.SetStr("cache", "miss")
	loose, tree := s.getSemanticPlace(p, lw)
	lc.store(key, s.lastLB, s.lastExact)
	return loose, tree
}
