package geom

import (
	"slices"
	"sort"
)

// Set is a normalized collection of disjoint, non-adjacent extents kept in
// ascending order. It is the small-scale interval set used by the prefetch
// buffer coverage index and by several analyses; the large-scale LBA→PBA
// mapping lives in package extmap.
//
// The zero Set is empty and ready to use.
type Set struct {
	exts []Extent
}

// NewSet returns a set containing the given extents (normalized).
func NewSet(exts ...Extent) *Set {
	s := &Set{}
	for _, e := range exts {
		s.Add(e)
	}
	return s
}

// Sectors returns the total number of sectors covered.
func (s *Set) Sectors() int64 {
	var n int64
	for _, e := range s.exts {
		n += e.Count
	}
	return n
}

// search returns the index of the first extent whose end is > start.
func (s *Set) search(start Sector) int {
	return sort.Search(len(s.exts), func(i int) bool { return s.exts[i].End() > start })
}

// Add inserts e, merging with any overlapping or adjacent extents. It
// shifts in place instead of rebuilding the slice, so a warm set absorbs
// new extents without allocating.
func (s *Set) Add(e Extent) {
	if e.Empty() {
		return
	}
	// Find the run of extents that overlap or touch e.
	i := s.search(e.Start - 1) // include an extent ending exactly at e.Start
	j := i
	merged := e
	for j < len(s.exts) && s.exts[j].Start <= merged.End() {
		if u, ok := merged.Union(s.exts[j]); ok {
			merged = u
		}
		j++
	}
	// Replace exts[i:j] with merged.
	switch {
	case i == j: // pure insertion: open one slot at i
		s.exts = append(s.exts, Extent{})
		copy(s.exts[i+1:], s.exts[i:])
		s.exts[i] = merged
	default: // absorb the run: write merged at i, close the gap
		s.exts[i] = merged
		s.exts = append(s.exts[:i+1], s.exts[j:]...)
	}
}

// Remove deletes e from the set. Of the extents it overlaps, only the
// first one's part before e and the last one's part after e survive, so
// the run is replaced in place by at most two pieces.
func (s *Set) Remove(e Extent) {
	if e.Empty() {
		return
	}
	i := s.search(e.Start)
	j := i
	for j < len(s.exts) && s.exts[j].Start < e.End() {
		j++
	}
	if i == j {
		return
	}
	var keep [2]Extent
	n := 0
	if s.exts[i].Start < e.Start {
		keep[n] = Span(s.exts[i].Start, e.Start)
		n++
	}
	if s.exts[j-1].End() > e.End() {
		keep[n] = Span(e.End(), s.exts[j-1].End())
		n++
	}
	s.exts = slices.Replace(s.exts, i, j, keep[:n]...)
}

// Contains reports whether the whole extent e is covered by the set.
func (s *Set) Contains(e Extent) bool {
	if e.Empty() {
		return true
	}
	i := s.search(e.Start)
	return i < len(s.exts) && s.exts[i].ContainsExtent(e)
}

// Covered returns the portions of e present in the set, ascending.
func (s *Set) Covered(e Extent) []Extent {
	if e.Empty() {
		return nil
	}
	var out []Extent
	for i := s.search(e.Start); i < len(s.exts) && s.exts[i].Start < e.End(); i++ {
		if ov := s.exts[i].Intersect(e); !ov.Empty() {
			out = append(out, ov)
		}
	}
	return out
}
