package lru

import (
	"math/rand"
	"sync"
	"testing"
)

func TestPeekDoesNotTouch(t *testing.T) {
	c := New[int, int](2)
	c.Put(1, 1)
	c.Put(2, 2)
	c.Peek(1)   // must NOT refresh 1
	c.Put(3, 3) // evicts 1 (oldest by recency)
	if _, ok := c.Peek(1); ok {
		t.Fatal("Peek should not refresh recency")
	}
}

func intHash(k int) uint32 { return uint32(k) * 2654435761 }

func TestShardedBasic(t *testing.T) {
	s := NewSharded[int, string](4, 64, intHash)
	s.Put(1, "one")
	if v, ok := s.Get(1); !ok || v != "one" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if _, ok := s.Get(2); ok {
		t.Fatal("phantom hit")
	}
	h, m := s.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d,%d", h, m)
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
}

func TestShardedUpdateMerge(t *testing.T) {
	s := NewSharded[int, int](2, 32, intHash)
	max := func(v int) func(int, bool) (int, bool) {
		return func(old int, ok bool) (int, bool) {
			if ok && old >= v {
				return old, false
			}
			return v, true
		}
	}
	s.Update(7, max(5))
	s.Update(7, max(3)) // lower: no store
	if v, _ := s.Get(7); v != 5 {
		t.Fatalf("merge kept %d, want 5", v)
	}
	s.Update(7, max(9))
	if v, _ := s.Get(7); v != 9 {
		t.Fatalf("merge kept %d, want 9", v)
	}
}

func TestShardedShardCountRounding(t *testing.T) {
	s := NewSharded[int, int](3, 100, intHash) // rounds to 4 shards
	if len(s.shards) != 4 {
		t.Fatalf("shards = %d, want 4", len(s.shards))
	}
	if s.shards[0].c.capacity != 25 {
		t.Fatalf("per-shard capacity = %d, want 25", s.shards[0].c.capacity)
	}
}

// Concurrent stress: values for a key are always one that was Put for
// that key (run under -race for the memory-model check).
func TestShardedConcurrent(t *testing.T) {
	s := NewSharded[int, int](8, 128, intHash)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 4000; i++ {
				k := rng.Intn(100)
				switch rng.Intn(3) {
				case 0:
					s.Put(k, k*1000+rng.Intn(1000))
				case 1:
					if v, ok := s.Get(k); ok && v/1000 != k {
						t.Errorf("key %d holds foreign value %d", k, v)
						return
					}
				case 2:
					s.Update(k, func(old int, ok bool) (int, bool) {
						if ok {
							return old, false
						}
						return k * 1000, true
					})
				}
			}
		}(int64(w + 1))
	}
	wg.Wait()
}
