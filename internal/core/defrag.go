package core

import (
	"fmt"

	"smrseek/internal/geom"
)

// DefragConfig parameterizes opportunistic defragmentation (Algorithm 1).
// The paper suggests both gates: "defragmenting only regions with N or
// more fragments, or waiting until a fragmented range has been accessed
// k or more times" (§IV-A).
type DefragConfig struct {
	// MinFragments is the minimum dynamic fragmentation of a read before
	// it is eligible for write-back. Must be at least 2 (an unfragmented
	// read has nothing to defragment).
	MinFragments int
	// MinAccesses is how many times a fragmented range must be read
	// before it is written back. 1 defragments on first sight.
	MinAccesses int
}

// DefaultDefragConfig defragments any fragmented read on first access,
// the paper's base policy (Algorithm 1 has no gates).
func DefaultDefragConfig() DefragConfig {
	return DefragConfig{MinFragments: 2, MinAccesses: 1}
}

// Validate reports configuration errors. NewDefragmenter clamps
// out-of-range gates for direct construction, but a simulation Config
// carrying nonsense gates almost certainly meant something else, so the
// pipeline fails fast instead.
func (c DefragConfig) Validate() error {
	if c.MinFragments < 2 {
		return fmt.Errorf("core: defrag MinFragments %d, want >= 2 (an unfragmented read has nothing to defragment)", c.MinFragments)
	}
	if c.MinAccesses < 1 {
		return fmt.Errorf("core: defrag MinAccesses %d, want >= 1", c.MinAccesses)
	}
	return nil
}

// Defragmenter decides, per fragmented read, whether to rewrite the read
// range at the log head, and tracks access counts for the k-access gate.
type Defragmenter struct {
	cfg DefragConfig
	// accesses counts fragmented reads per exact read extent. Reset on
	// write-back (the rewritten range is contiguous again).
	accesses map[extKey]int

	writebacks  int64
	writtenBack int64 // sectors rewritten
}

// NewDefragmenter returns a defragmenter with the given configuration;
// out-of-range gates are clamped to their minimums.
func NewDefragmenter(cfg DefragConfig) *Defragmenter {
	if cfg.MinFragments < 2 {
		cfg.MinFragments = 2
	}
	if cfg.MinAccesses < 1 {
		cfg.MinAccesses = 1
	}
	return &Defragmenter{cfg: cfg, accesses: make(map[extKey]int)}
}

// ShouldDefrag records one fragmented read of the extent (with the given
// dynamic fragmentation) and reports whether the range should now be
// written back to the log head.
func (d *Defragmenter) ShouldDefrag(lba geom.Extent, fragments int) bool {
	if fragments < d.cfg.MinFragments {
		return false
	}
	k := keyOf(lba)
	d.accesses[k]++
	if d.accesses[k] < d.cfg.MinAccesses {
		return false
	}
	delete(d.accesses, k) // range becomes contiguous; start over
	return true
}

// NoteWriteback records that a write-back of n sectors was performed.
func (d *Defragmenter) NoteWriteback(sectors int64) {
	d.writebacks++
	d.writtenBack += sectors
}

// Writebacks returns the number of defragmentation write-backs issued.
func (d *Defragmenter) Writebacks() int64 { return d.writebacks }

// WrittenBackSectors returns the total sectors rewritten by defrag.
func (d *Defragmenter) WrittenBackSectors() int64 { return d.writtenBack }
