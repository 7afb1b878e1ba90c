package lru

import (
	"testing"
	"testing/quick"
)

// keysOf lists c's keys from most to least recently used.
func keysOf[K comparable, V any](c *Cache[K, V]) []K {
	var out []K
	for e := c.root.next; e != &c.root; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func TestAddGet(t *testing.T) {
	c := New[string, int](100)
	c.Add("a", 1, 10)
	c.Add("b", 2, 10)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v,%v", v, ok)
	}
	if _, ok := c.Get("zzz"); ok {
		t.Fatal("Get(zzz) should miss")
	}
	if c.Hits() != 1 || c.Misses() != 1 {
		t.Errorf("hits=%d misses=%d", c.Hits(), c.Misses())
	}
	if c.Len() != 2 || c.used != 20 || c.capacity != 100 {
		t.Errorf("Len=%d Used=%d Cap=%d", c.Len(), c.used, c.capacity)
	}
}

func TestEvictionOrder(t *testing.T) {
	c := New[int, int](30)
	var evicted []int
	c.OnEvict(func(k, v int) { evicted = append(evicted, k) })
	c.Add(1, 1, 10)
	c.Add(2, 2, 10)
	c.Add(3, 3, 10)
	c.Get(1)        // 1 becomes hottest; coldest is 2
	c.Add(4, 4, 10) // must evict 2
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted = %v, want [2]", evicted)
	}
	if _, ok := c.Peek(2); ok {
		t.Error("2 should be gone")
	}
	if keys := keysOf(c); keys[len(keys)-1] != 3 {
		t.Errorf("keys = %v, want 3 coldest", keys)
	}
}

func TestOversizeEntryEvictedImmediately(t *testing.T) {
	c := New[string, int](10)
	var evicted []string
	c.OnEvict(func(k string, v int) { evicted = append(evicted, k) })
	c.Add("huge", 1, 100)
	if c.Len() != 0 || c.used != 0 {
		t.Fatalf("oversize entry retained: len=%d used=%d", c.Len(), c.used)
	}
	if len(evicted) != 1 || evicted[0] != "huge" {
		t.Errorf("evicted = %v", evicted)
	}
}

func TestUpdateResizes(t *testing.T) {
	c := New[string, int](100)
	c.Add("a", 1, 10)
	c.Add("a", 2, 50)
	if c.used != 50 || c.Len() != 1 {
		t.Fatalf("Used=%d Len=%d", c.used, c.Len())
	}
	if v, _ := c.Peek("a"); v != 2 {
		t.Error("update did not replace value")
	}
}

func TestRemove(t *testing.T) {
	c := New[string, int](100)
	c.OnEvict(func(k string, v int) { t.Errorf("OnEvict called for explicit Remove(%s)", k) })
	c.Add("a", 1, 10)
	if !c.Remove("a") {
		t.Fatal("Remove should report true")
	}
	if c.Remove("a") {
		t.Fatal("second Remove should report false")
	}
	if c.used != 0 || c.Len() != 0 {
		t.Error("Remove did not release size")
	}
}

func TestKeysMRUOrder(t *testing.T) {
	c := New[int, int](1000)
	for i := 0; i < 5; i++ {
		c.Add(i, i, 1)
	}
	c.Get(0)
	got := keysOf(c)
	want := []int{0, 4, 3, 2, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Keys = %v, want %v", got, want)
		}
	}
}

func TestZeroCapacityHoldsNothing(t *testing.T) {
	c := New[int, int](0)
	c.Add(1, 1, 1)
	if c.Len() != 0 {
		t.Error("zero-capacity cache must hold nothing")
	}
	c.Add(2, 2, 0) // zero-size entries fit in zero capacity
	if c.Len() != 1 {
		t.Error("zero-size entry should fit")
	}
}

func TestNegativeSizeClamped(t *testing.T) {
	c := New[int, int](10)
	c.Add(1, 1, -5)
	if c.used != 0 {
		t.Errorf("Used = %d, want 0", c.used)
	}
}

// Property: Used never exceeds capacity after any Add sequence, and Used
// equals the sum of surviving entries' sizes.
func TestCapacityInvariantProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		c := New[uint8, int](64)
		sizes := map[uint8]int64{}
		for i, k := range ops {
			size := int64(k % 17)
			c.Add(k, i, size)
			sizes[k] = size
			if c.used > 64 {
				return false
			}
		}
		var sum int64
		for _, k := range keysOf(c) {
			sum += sizes[k]
		}
		return sum == c.used
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestEntrySlabRefill pins the freelist: a growing cache allocates its
// entries a slab at a time, and a removed entry is reused before the
// next slab is cut.
func TestEntrySlabRefill(t *testing.T) {
	c := New[int, int](1 << 20)
	freeLen := func() int {
		n := 0
		for e := c.free; e != nil; e = e.next {
			n++
		}
		return n
	}
	c.Add(0, 0, 1)
	if got := freeLen(); got != entrySlabSize-1 {
		t.Fatalf("freelist holds %d entries after the first Add, want %d", got, entrySlabSize-1)
	}
	for i := 1; i <= entrySlabSize; i++ {
		c.Add(i, i, 1)
	}
	if got := freeLen(); got != entrySlabSize-1 {
		t.Fatalf("freelist holds %d entries one Add into the second slab, want %d", got, entrySlabSize-1)
	}
	c.Remove(3)
	c.Add(1000, 1000, 1)
	if got := freeLen(); got != entrySlabSize-1 {
		t.Errorf("freelist holds %d entries after a remove/add pair, want %d", got, entrySlabSize-1)
	}
	if got := keysOf(c); len(got) != entrySlabSize+1 || got[0] != 1000 {
		t.Errorf("after the churn the cache lists %d keys, most recent %d", len(got), got[0])
	}
}
