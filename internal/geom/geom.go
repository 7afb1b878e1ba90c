// Package geom provides the sector-addressed interval algebra used
// throughout smrseek: extents (half-open sector ranges), overlap and
// adjacency tests, intersection, subtraction and merging.
//
// All addresses are in 512-byte sectors. The disk model, extent map and
// translation layers are all built on these primitives, so the operations
// here are deliberately small, allocation-light and heavily tested.
package geom

import "fmt"

// SectorSize is the number of bytes per sector. The paper's seek
// definition ("an I/O operation starts at a sector other than that
// immediately following the previous I/O operation") is in sectors, and
// every address in this module is a sector number.
const SectorSize = 512

// Sector is an absolute sector number (LBA or PBA depending on context).
type Sector = int64

// Extent is a half-open interval of sectors [Start, Start+Count).
// The zero Extent is empty.
type Extent struct {
	Start Sector
	Count int64
}

// Ext is shorthand for constructing an Extent.
func Ext(start Sector, count int64) Extent { return Extent{Start: start, Count: count} }

// Span constructs the extent covering [start, end). It panics if end < start.
func Span(start, end Sector) Extent {
	if end < start {
		panic(fmt.Sprintf("geom: invalid span [%d,%d)", start, end))
	}
	return Extent{Start: start, Count: end - start}
}

// End returns the first sector after the extent.
func (e Extent) End() Sector { return e.Start + e.Count }

// Empty reports whether the extent covers no sectors.
func (e Extent) Empty() bool { return e.Count <= 0 }

// Bytes returns the extent's size in bytes.
func (e Extent) Bytes() int64 { return e.Count * SectorSize }

// ContainsExtent reports whether o lies entirely inside e.
// An empty o is contained in anything.
func (e Extent) ContainsExtent(o Extent) bool {
	if o.Empty() {
		return true
	}
	return o.Start >= e.Start && o.End() <= e.End()
}

// Overlaps reports whether the two extents share at least one sector.
func (e Extent) Overlaps(o Extent) bool {
	if e.Empty() || o.Empty() {
		return false
	}
	return e.Start < o.End() && o.Start < e.End()
}

// Intersect returns the overlap of the two extents, which is empty when
// they do not overlap.
func (e Extent) Intersect(o Extent) Extent {
	start := max64(e.Start, o.Start)
	end := min64(e.End(), o.End())
	if end <= start {
		return Extent{}
	}
	return Span(start, end)
}

// AdjacentBefore reports whether e ends exactly where o begins.
func (e Extent) AdjacentBefore(o Extent) bool {
	return !e.Empty() && !o.Empty() && e.End() == o.Start
}

// Union returns the smallest extent covering both e and o when they
// overlap or touch, and ok=false otherwise.
func (e Extent) Union(o Extent) (Extent, bool) {
	if e.Empty() {
		return o, true
	}
	if o.Empty() {
		return e, true
	}
	if !e.Overlaps(o) && !e.AdjacentBefore(o) && !o.AdjacentBefore(e) {
		return Extent{}, false
	}
	return Span(min64(e.Start, o.Start), max64(e.End(), o.End())), true
}

// String renders the extent as "[start,end)" for diagnostics.
func (e Extent) String() string {
	return fmt.Sprintf("[%d,%d)", e.Start, e.End())
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
