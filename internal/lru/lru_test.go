package lru

import (
	"math/rand"
	"testing"
)

func TestBasic(t *testing.T) {
	c := New[int, string](2)
	if _, ok := c.PeekTouch(1); ok {
		t.Fatal("empty cache hit")
	}
	c.Put(1, "one")
	c.Put(2, "two")
	if v, ok := c.PeekTouch(1); !ok || v != "one" {
		t.Fatalf("PeekTouch(1) = %q,%v", v, ok)
	}
	c.Put(3, "three") // evicts 2 (1 was touched)
	if _, ok := c.Peek(2); ok {
		t.Fatal("2 should have been evicted")
	}
	if _, ok := c.Peek(1); !ok {
		t.Fatal("1 should survive")
	}
	if _, ok := c.Peek(3); !ok {
		t.Fatal("3 should be present")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestPutRefreshesValue(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 2)
	if v, _ := c.Peek("a"); v != 2 {
		t.Fatalf("value not refreshed: %d", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[int, int](3)
	for i := 1; i <= 3; i++ {
		c.Put(i, i)
	}
	c.PeekTouch(1) // 1 gets a second chance; order after Put(4) is 1,4,3
	c.Put(4, 4)    // evicts 2
	if _, ok := c.Peek(2); ok {
		t.Fatal("2 should be evicted")
	}
	c.Put(5, 5) // evicts 3
	if _, ok := c.Peek(3); ok {
		t.Fatal("3 should be evicted")
	}
	for _, k := range []int{1, 4, 5} {
		if _, ok := c.Peek(k); !ok {
			t.Fatalf("%d should be present", k)
		}
	}
}

func TestCapacityFloor(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// Stress against a map-based reference model.
func TestAgainstReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const capEntries = 16
	c := New[int, int](capEntries)
	present := map[int]int{} // key -> value of entries that MUST match if cached
	for i := 0; i < 20000; i++ {
		k := rng.Intn(64)
		switch rng.Intn(2) {
		case 0:
			v := rng.Int()
			c.Put(k, v)
			present[k] = v
		case 1:
			if v, ok := c.PeekTouch(k); ok {
				if want, tracked := present[k]; tracked && v != want {
					t.Fatalf("stale value for %d: %d != %d", k, v, want)
				}
			}
		}
		if c.Len() > capEntries {
			t.Fatalf("over capacity: %d", c.Len())
		}
	}
}
