package lru

import (
	"testing"
	"unsafe"
)

// TestShardPadding pins the anti-false-sharing layout: the sizing
// mirror must match the real header, the header must still fit in one
// alignment unit, and adjacent shards in the backing array must never
// share a cache line (64 bytes on common hardware; shardAlign = 128
// also covers adjacent-line prefetching).
func TestShardPadding(t *testing.T) {
	type concrete = shard[int, int]
	size := unsafe.Sizeof(concrete{})
	if size%shardAlign != 0 {
		t.Fatalf("sizeof(shard) = %d, not a multiple of shardAlign %d", size, shardAlign)
	}
	if hdr := unsafe.Sizeof(shardHeader{}); hdr > shardAlign {
		t.Fatalf("shard header grew to %d bytes, past shardAlign %d; recompute the pad", hdr, shardAlign)
	}
	var sh concrete
	if mirror, real := unsafe.Sizeof(shardHeader{}),
		unsafe.Sizeof(sh.mu)+unsafe.Sizeof(sh.c); mirror != real {
		t.Fatalf("shardHeader mirror = %d bytes, real fields = %d; realign the mirror", mirror, real)
	}

	s := NewSharded[int, int](4, 64, intHash)
	const line = 64
	for i := 1; i < len(s.shards); i++ {
		prev := uintptr(unsafe.Pointer(&s.shards[i-1]))
		cur := uintptr(unsafe.Pointer(&s.shards[i]))
		if gap := cur - prev; gap < line || gap%line != 0 {
			t.Fatalf("shards %d and %d are %d bytes apart; they share a cache line", i-1, i, gap)
		}
	}
}

// TestPeekTouchSecondChance verifies the CLOCK bit: a touched tail entry
// survives one eviction scan, an untouched one does not, and the bit is
// consumed by the scan.
func TestPeekTouchSecondChance(t *testing.T) {
	c := New[int, string](2)
	c.Put(1, "one")
	c.Put(2, "two")
	if v, ok := c.PeekTouch(1); !ok || v != "one" {
		t.Fatalf("PeekTouch = %q,%v", v, ok)
	}
	// 1 is the LRU tail but touched: inserting 3 must evict 2 instead.
	c.Put(3, "three")
	if _, ok := c.Peek(1); !ok {
		t.Fatal("touched tail entry was evicted; second chance not granted")
	}
	if _, ok := c.Peek(2); ok {
		t.Fatal("untouched entry survived past a touched one")
	}
	// The rotation moved 1 to the front and consumed its bit: 3 is now
	// the tail and evicts first, then 1 evicts normally (no second
	// second chance).
	c.Put(4, "four")
	if _, ok := c.Peek(3); ok {
		t.Fatal("entry 3 should be the post-rotation tail and evict first")
	}
	c.Put(5, "five")
	if _, ok := c.Peek(1); ok {
		t.Fatal("reference bit was not consumed by the eviction scan")
	}
}
