package core

import (
	"fmt"

	"smrseek/internal/geom"
	"smrseek/internal/lru"
)

// CacheConfig parameterizes translation-aware selective caching
// (Algorithm 3).
type CacheConfig struct {
	// CapacityBytes is the RAM devoted to cached fragments. The paper's
	// evaluation fixes 64 MB.
	CapacityBytes int64
}

// DefaultCacheConfig returns the paper's 64 MB evaluation setting.
func DefaultCacheConfig() CacheConfig { return CacheConfig{CapacityBytes: 64 << 20} }

// Validate reports configuration errors: a cache with no capacity can
// never hold a fragment, so the run would silently degenerate to plain
// LS while reporting an "LS+cache" SAF.
func (c CacheConfig) Validate() error {
	if c.CapacityBytes <= 0 {
		return fmt.Errorf("core: cache capacity %d bytes, want > 0", c.CapacityBytes)
	}
	return nil
}

// extKey identifies a cached fragment by its exact LBA extent. Fragment
// boundaries are determined by the extent map, so repeated reads of the
// same data yield the same keys until an intervening write changes the
// map — and an intervening write invalidates the overlapping entries
// anyway. Keying by exact extent can therefore produce false misses
// (e.g. a narrower re-read of a cached range) but never false hits.
type extKey struct {
	start geom.Sector
	count int64
}

func keyOf(e geom.Extent) extKey { return extKey{start: e.Start, count: e.Count} }

func (k extKey) extent() geom.Extent { return geom.Ext(k.start, k.count) }

// SelectiveCache is the translation-aware selective cache: an LRU over
// fragments observed in fragmented reads, indexed by LBA extent and
// invalidated by overlapping writes.
type SelectiveCache struct {
	cfg CacheConfig
	c   *lru.Cache[extKey, struct{}]

	// idx files exactly the LRU's keys by LBA bucket, so a write tests
	// only the keys near it instead of every key. Insert, capacity
	// eviction (the LRU's callback) and Invalidate all update both
	// structures.
	idx extIndex
	// dropped is Invalidate's scratch list of overlapping keys.
	dropped []extKey

	invalidations int64
}

// NewSelectiveCache returns a cache with the given configuration.
func NewSelectiveCache(cfg CacheConfig) *SelectiveCache {
	s := &SelectiveCache{
		cfg: cfg,
		c:   lru.New[extKey, struct{}](cfg.CapacityBytes),
		idx: extIndex{buckets: make(map[int64][]extKey)},
	}
	s.c.OnEvict(func(k extKey, _ struct{}) { s.idx.remove(k) })
	return s
}

// Has reports whether the fragment's exact LBA extent is cached, marking
// it most recently used on a hit.
func (s *SelectiveCache) Has(lba geom.Extent) bool {
	_, ok := s.c.Get(keyOf(lba))
	return ok
}

// Insert caches the fragment's data (modelled by size only).
func (s *SelectiveCache) Insert(lba geom.Extent) {
	if lba.Empty() {
		return
	}
	k, size := keyOf(lba), lba.Bytes()
	if lba.Count > s.cfg.CapacityBytes/geom.SectorSize {
		// Larger than the whole cache: Add evicts every entry and then k
		// itself, so k is never indexed. The size is pinned past the
		// capacity because Bytes overflows on an extent this long.
		size = s.cfg.CapacityBytes + 1
	} else if _, ok := s.c.Peek(k); !ok {
		s.idx.insert(k)
	}
	s.c.Add(k, struct{}{}, size)
}

// Invalidate drops every cached entry overlapping the written extent, so
// the cache can never serve stale data. It returns the number of entries
// dropped.
func (s *SelectiveCache) Invalidate(written geom.Extent) int {
	if written.Empty() {
		return 0
	}
	s.dropped = s.idx.appendOverlapping(s.dropped[:0], written)
	for _, k := range s.dropped {
		s.idx.remove(k)
		s.c.Remove(k)
	}
	s.invalidations += int64(len(s.dropped))
	return len(s.dropped)
}

// Hits returns the number of fragment lookups served from RAM.
func (s *SelectiveCache) Hits() int64 { return s.c.Hits() }

// Misses returns the number of fragment lookups that went to disk.
func (s *SelectiveCache) Misses() int64 { return s.c.Misses() }

// Invalidations returns the number of entries dropped by writes.
func (s *SelectiveCache) Invalidations() int64 { return s.invalidations }
