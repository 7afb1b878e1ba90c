package workload

import (
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
)

// Builder accumulates trace records with a virtual clock. Generators
// compose its primitives; nothing here is random — randomness lives in
// the profile engine so the primitives stay trivially testable.
type Builder struct {
	recs    []trace.Record
	clock   int64 // ns
	interOp int64 // ns advanced per emitted record
}

// NewBuilder returns a builder whose virtual clock advances interOp
// nanoseconds per operation (1 ms if interOp <= 0).
func NewBuilder(interOp int64) *Builder {
	if interOp <= 0 {
		interOp = 1_000_000
	}
	return &Builder{interOp: interOp}
}

// Len returns the number of records emitted so far.
func (b *Builder) Len() int { return len(b.recs) }

// Records returns the accumulated trace.
func (b *Builder) Records() []trace.Record { return b.recs }

func (b *Builder) emit(kind disk.OpKind, ext geom.Extent) {
	if ext.Empty() {
		return
	}
	b.recs = append(b.recs, trace.Record{Time: b.clock, Kind: kind, Extent: ext})
	b.clock += b.interOp
}

// Read emits one read of n sectors at start.
func (b *Builder) Read(start geom.Sector, n int64) { b.emit(disk.Read, geom.Ext(start, n)) }

// ReadExtent and WriteExtent emit extent-shaped operations.
func (b *Builder) ReadExtent(e geom.Extent) { b.emit(disk.Read, e) }

// WriteExtent emits one write covering e.
func (b *Builder) WriteExtent(e geom.Extent) { b.emit(disk.Write, e) }

// MisorderPattern selects the shape of a mis-ordered write burst, after
// the patterns visible in the paper's Figure 7.
type MisorderPattern int

const (
	// Descending writes the chunks of a contiguous range in strictly
	// descending LBA order (hm_1's most extreme shape).
	Descending MisorderPattern = iota
	// Interleaved writes even-indexed chunks ascending, then the odd ones
	// ascending — two interleaved streams.
	Interleaved
	// Shuffled writes the chunks in a random order (w106's small-scale
	// randomness). Requires an RNG.
	Shuffled
)

// MisorderedWrite writes the contiguous range [start, start+chunks*chunk)
// as chunk-sized pieces in a non-ascending order. The whole burst is
// dispatched back-to-back, modelling the paper's observation that such
// I/Os arrive within microseconds of each other. rng may be nil except
// for Shuffled.
func (b *Builder) MisorderedWrite(start geom.Sector, chunks int, chunk int64, p MisorderPattern, rng *RNG) {
	if chunks <= 0 || chunk <= 0 {
		return
	}
	order := make([]int, chunks)
	switch p {
	case Descending:
		for i := range order {
			order[i] = chunks - 1 - i
		}
	case Interleaved:
		k := 0
		for i := 0; i < chunks; i += 2 {
			order[k] = i
			k++
		}
		for i := 1; i < chunks; i += 2 {
			order[k] = i
			k++
		}
	case Shuffled:
		copy(order, rng.Perm(chunks))
	}
	for _, idx := range order {
		b.emit(disk.Write, geom.Ext(start+int64(idx)*chunk, chunk))
	}
}
