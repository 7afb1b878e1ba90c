// Package lru provides a size-aware least-recently-used container: each
// entry carries a byte cost and the cache evicts from the cold end until
// the configured capacity is respected. It is the building block for the
// translation-aware selective cache.
package lru

// EvictFunc is called with each entry removed by capacity pressure (not
// by explicit Remove).
type EvictFunc[K comparable, V any] func(key K, value V)

// entry is an intrusive doubly-linked list node. Entries removed from
// the cache are recycled through a freelist (threaded via next), so the
// insert/evict churn of a long run stops allocating once the cache has
// reached its working size, and a growing cache refills the freelist a
// slab at a time instead of allocating per entry.
type entry[K comparable, V any] struct {
	key        K
	value      V
	size       int64
	prev, next *entry[K, V]
}

// Cache is a size-aware LRU. It is not safe for concurrent use; the
// simulator is single-threaded by design (determinism).
type Cache[K comparable, V any] struct {
	capacity int64
	used     int64
	items    map[K]*entry[K, V]
	root     entry[K, V] // sentinel: root.next is MRU, root.prev is LRU
	free     *entry[K, V]
	onEvict  EvictFunc[K, V]

	hits, misses int64
}

// New returns a cache holding at most capacity bytes. A non-positive
// capacity means the cache stores nothing (every Add evicts immediately).
func New[K comparable, V any](capacity int64) *Cache[K, V] {
	c := &Cache[K, V]{
		capacity: capacity,
		items:    make(map[K]*entry[K, V]),
	}
	c.root.prev = &c.root
	c.root.next = &c.root
	return c
}

// OnEvict registers a callback invoked for each capacity eviction.
func (c *Cache[K, V]) OnEvict(fn EvictFunc[K, V]) { c.onEvict = fn }

// Len returns the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

// Hits and Misses report Get statistics.
func (c *Cache[K, V]) Hits() int64 { return c.hits }

// Misses reports the number of Get calls that found nothing.
func (c *Cache[K, V]) Misses() int64 { return c.misses }

// unlink detaches e from the recency list.
func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

// pushFront links e as most recently used.
func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = &c.root
	e.next = c.root.next
	e.next.prev = e
	c.root.next = e
}

// entrySlabSize is how many entries one freelist refill allocates.
const entrySlabSize = 64

// newEntry takes an entry from the freelist, refilling it with a fresh
// slab when empty.
func (c *Cache[K, V]) newEntry() *entry[K, V] {
	if c.free == nil {
		slab := make([]entry[K, V], entrySlabSize)
		for i := range slab[:len(slab)-1] {
			slab[i].next = &slab[i+1]
		}
		c.free = &slab[0]
	}
	e := c.free
	c.free = e.next
	e.next = nil
	return e
}

// recycle returns a detached entry to the freelist, dropping its key and
// value so the cache does not pin them.
func (c *Cache[K, V]) recycle(e *entry[K, V]) {
	*e = entry[K, V]{next: c.free}
	c.free = e
}

// Get returns the value for key and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if e, ok := c.items[key]; ok {
		c.unlink(e)
		c.pushFront(e)
		c.hits++
		return e.value, true
	}
	c.misses++
	var zero V
	return zero, false
}

// Peek returns the value without touching recency or hit statistics.
func (c *Cache[K, V]) Peek(key K) (V, bool) {
	if e, ok := c.items[key]; ok {
		return e.value, true
	}
	var zero V
	return zero, false
}

// Add inserts or updates key with the given value and byte size, marks it
// most recently used, and evicts cold entries until the capacity holds.
// An entry larger than the whole capacity is evicted immediately.
func (c *Cache[K, V]) Add(key K, value V, size int64) {
	if size < 0 {
		size = 0
	}
	if e, ok := c.items[key]; ok {
		c.used += size - e.size
		e.value = value
		e.size = size
		c.unlink(e)
		c.pushFront(e)
	} else {
		e := c.newEntry()
		e.key = key
		e.value = value
		e.size = size
		c.pushFront(e)
		c.items[key] = e
		c.used += size
	}
	c.evictTo(c.capacity)
}

// Remove deletes key if present and reports whether it was there. The
// eviction callback is not invoked.
func (c *Cache[K, V]) Remove(key K) bool {
	e, ok := c.items[key]
	if !ok {
		return false
	}
	c.removeEntry(e)
	return true
}

func (c *Cache[K, V]) evictTo(limit int64) {
	for c.used > limit {
		e := c.root.prev
		if e == &c.root {
			return
		}
		key, value := e.key, e.value
		c.removeEntry(e)
		if c.onEvict != nil {
			c.onEvict(key, value)
		}
	}
}

func (c *Cache[K, V]) removeEntry(e *entry[K, V]) {
	c.unlink(e)
	delete(c.items, e.key)
	c.used -= e.size
	c.recycle(e)
}
