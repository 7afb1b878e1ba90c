package core

import (
	"fmt"
	"math"

	"smrseek/internal/geom"
)

// PrefetchConfig parameterizes translation-aware look-ahead-behind
// prefetching (Algorithm 2).
type PrefetchConfig struct {
	// LookBehindSectors is how far before a fragment's physical start the
	// drive reads into its buffer while the platter rotates toward the
	// requested sector.
	LookBehindSectors int64
	// LookAheadSectors is how far past the fragment's physical end the
	// drive keeps reading after completing the request.
	LookAheadSectors int64
	// BufferBytes bounds the drive buffer devoted to prefetched data;
	// the oldest windows are dropped first (drive buffers are small FIFO
	// segment pools, not LRU caches).
	BufferBytes int64
}

// DefaultPrefetchConfig uses a 256 KB window on each side — matching the
// paper's mis-ordered-write horizon (§IV-B) — and a 32 MB buffer, well
// inside the 128–256 MB of DRAM the paper notes on current drives.
func DefaultPrefetchConfig() PrefetchConfig {
	return PrefetchConfig{
		LookBehindSectors: 256 * 1024 / geom.SectorSize,
		LookAheadSectors:  256 * 1024 / geom.SectorSize,
		BufferBytes:       32 << 20,
	}
}

// Validate reports configuration errors: negative windows, a buffer
// that cannot hold anything, or a zero-width window pair (which buffers
// only the fragment itself — not prefetching, and almost certainly a
// unit mistake in the sector counts).
func (c PrefetchConfig) Validate() error {
	if c.LookBehindSectors < 0 || c.LookAheadSectors < 0 {
		return fmt.Errorf("core: negative prefetch window (behind %d, ahead %d)", c.LookBehindSectors, c.LookAheadSectors)
	}
	if c.LookBehindSectors == 0 && c.LookAheadSectors == 0 {
		return fmt.Errorf("core: prefetch windows are both zero; nothing beyond the fragment itself would ever be buffered")
	}
	if c.BufferBytes <= 0 {
		return fmt.Errorf("core: prefetch buffer %d bytes, want > 0", c.BufferBytes)
	}
	return nil
}

// Prefetcher models the drive's look-ahead-behind buffer over *physical*
// addresses. In a log-structured layer the log is immutable (old physical
// locations are never rewritten), so buffered ranges can never go stale.
type Prefetcher struct {
	cfg PrefetchConfig
	// windows[head:] is the FIFO of live windows; evictions advance head
	// and the backing array is compacted once the dead prefix dominates,
	// so the queue reuses its storage instead of growing forever.
	windows []geom.Extent
	head    int
	covered *geom.Set // union of live windows, for containment checks
	bytes   int64

	hits int64
}

// NewPrefetcher returns a prefetcher with the given configuration.
func NewPrefetcher(cfg PrefetchConfig) *Prefetcher {
	return &Prefetcher{cfg: cfg, covered: geom.NewSet()}
}

// Covers reports whether the physical extent is entirely buffered, and
// updates hit statistics.
func (p *Prefetcher) Covers(phys geom.Extent) bool {
	if p.covered.Contains(phys) {
		p.hits++
		return true
	}
	return false
}

// Fill records that the drive serviced a read at phys and, per Algorithm
// 2, buffered LookBehind sectors before it and LookAhead sectors after it.
func (p *Prefetcher) Fill(phys geom.Extent) {
	if phys.Empty() {
		return
	}
	start := phys.Start - p.cfg.LookBehindSectors
	if start < 0 {
		start = 0
	}
	// The window ends at the largest sector rather than wrap past it.
	w := geom.Span(start, phys.End()+min(p.cfg.LookAheadSectors, math.MaxInt64-phys.End()))
	p.windows = append(p.windows, w)
	p.covered.Add(w)
	p.bytes += p.size(w)
	for p.bytes > p.cfg.BufferBytes && len(p.windows)-p.head > 1 {
		p.evictOldest()
	}
}

// size is the bytes a window is accounted: one larger than the buffer,
// whose Bytes may overflow, is pinned just past it.
func (p *Prefetcher) size(w geom.Extent) int64 {
	if w.Count > p.cfg.BufferBytes/geom.SectorSize {
		return p.cfg.BufferBytes + 1
	}
	return w.Bytes()
}

// evictOldest drops the oldest window from coverage, then restores the
// parts of it that a newer live window still buffers.
func (p *Prefetcher) evictOldest() {
	old := p.windows[p.head]
	p.head++
	p.bytes -= p.size(old)
	p.covered.Remove(old)
	for _, w := range p.windows[p.head:] {
		p.covered.Add(w.Intersect(old))
	}
	// Compact once the dead prefix is most of the array, so append stops
	// growing the backing storage.
	if p.head > 16 && p.head*2 >= len(p.windows) {
		n := copy(p.windows, p.windows[p.head:])
		p.windows = p.windows[:n]
		p.head = 0
	}
}

// Hits returns the number of fragment accesses served from the buffer.
func (p *Prefetcher) Hits() int64 { return p.hits }
