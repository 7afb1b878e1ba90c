// Package extmap implements the LBA→PBA extent map at the heart of a
// log-structured translation layer.
//
// The map is a set of disjoint LBA extents, each relocated to a physical
// (log) position. Writing a range punches a hole through any overlapping
// mappings — splitting, truncating or deleting them — and installs the new
// mapping, so the invariant "mappings are disjoint in LBA space" always
// holds. Looking up a range walks the covered mappings and merges pieces
// that are also physically contiguous, yielding the *fragments* the disk
// must visit to serve the read; the fragment count of a read is exactly
// the paper's "dynamic fragmentation".
//
// The mappings are kept in LBA order as a list of short sorted leaves,
// each at most leafMax long. A search is a binary search over the
// leaves' first starts and then one inside a leaf. An insert or delete
// moves at most one leaf's mappings, and the leaf list only when a leaf
// splits or merges; that list holds one entry per 32–128 mappings, so
// it stays short even for the million-extent maps that long traces
// build up.
package extmap

import (
	"fmt"
	"slices"

	"smrseek/internal/geom"
)

// Mapping relocates the LBA extent to the physical address space:
// LBA sector Lba.Start+i is stored at PBA Pba+i.
type Mapping struct {
	Lba geom.Extent
	Pba geom.Sector
}

// PhysEnd returns the first PBA after the mapping.
func (m Mapping) PhysEnd() geom.Sector { return m.Pba + m.Lba.Count }

// PhysExtent returns the physical extent the mapping occupies.
func (m Mapping) PhysExtent() geom.Extent { return geom.Ext(m.Pba, m.Lba.Count) }

// String renders the mapping for diagnostics.
func (m Mapping) String() string {
	return fmt.Sprintf("%v->%d", m.Lba, m.Pba)
}

// leafMax is the most mappings one leaf holds. A full leaf splits into
// halves; a delete merges a leaf into a neighbour when the two together
// hold at most leafMax/2, so every adjacent pair of leaves holds more
// than leafMax/2 and a map of n mappings has at most 4·n/leafMax+1
// leaves.
const leafMax = 128

// Map is the extent map. The zero value is an empty map ready to use.
type Map struct {
	// leaves holds the mappings in ascending LBA order, cut into
	// non-empty runs of at most leafMax; every leaf's array has capacity
	// leafMax, so inserts and merges within it never reallocate.
	leaves [][]Mapping
	// spare is the array of the last leaf a delete emptied or merged
	// away, reused by the next split so delete/insert churn does not
	// allocate.
	spare []Mapping
	n     int // number of mappings
	// coalesce, when set, merges mappings that are adjacent in LBA space
	// and contiguous in PBA space at Insert time, keeping the map minimal.
	coalesce bool
	// mapped caches the total mapped sector count so MappedSectors is
	// O(1); insert/deleteStart keep it current and CheckInvariants
	// cross-checks it against a direct sum.
	mapped int64
	// scratch is the reusable overlap buffer for InsertFunc/DeleteFunc;
	// it is why callbacks must not mutate the map re-entrantly.
	scratch []Mapping
}

// New returns an empty extent map.
func New() *Map { return &Map{} }

// NewCoalesced returns an empty extent map that merges mappings adjacent
// in both LBA and PBA space on insert, so sequential log writes collapse
// into one mapping. Layers that attribute mapped extents to fixed-size
// physical regions (segments, zones) must use New instead: coalescing
// can fuse mappings across region boundaries.
func NewCoalesced() *Map { return &Map{coalesce: true} }

// Len returns the number of disjoint mappings.
func (t *Map) Len() int { return t.n }

// MappedSectors returns the total number of LBA sectors with a mapping.
// The count is maintained incrementally on every insert and delete — no
// walk, no invalidation to miss — so report tables can poll it as a
// gauge; CheckInvariants cross-checks it against a direct sum.
func (t *Map) MappedSectors() int64 { return t.mapped }

// leafFor returns the index of the last leaf whose first mapping starts
// at or before s, or 0 when none does. Because mappings are disjoint, no
// leaf before it holds a mapping ending after s.
func (t *Map) leafFor(s geom.Sector) int {
	lo, hi := 1, len(t.leaves)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if t.leaves[mid][0].Lba.Start <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// firstEndingAfter returns the index of the first mapping in leaf that
// ends after s; disjointness makes ends ascend with starts.
func firstEndingAfter(leaf []Mapping, s geom.Sector) int {
	lo, hi := 0, len(leaf)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if leaf[mid].Lba.End() <= s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// newLeaf returns an empty leaf array, the spare one if there is one.
func (t *Map) newLeaf() []Mapping {
	if s := t.spare; s != nil {
		t.spare = nil
		return s[:0]
	}
	return make([]Mapping, 0, leafMax)
}

// insert adds a mapping known not to overlap any existing mapping.
func (t *Map) insert(m Mapping) {
	t.n++
	t.mapped += m.Lba.Count
	if len(t.leaves) == 0 {
		t.leaves = append(t.leaves, append(t.newLeaf(), m))
		return
	}
	i := t.leafFor(m.Lba.Start)
	leaf := t.leaves[i]
	j := firstEndingAfter(leaf, m.Lba.Start)
	if len(leaf) == leafMax {
		right := append(t.newLeaf(), leaf[leafMax/2:]...)
		leaf = leaf[:leafMax/2]
		t.leaves[i] = leaf
		t.leaves = slices.Insert(t.leaves, i+1, right)
		if j > leafMax/2 {
			i, leaf, j = i+1, right, j-leafMax/2
		}
	}
	t.leaves[i] = slices.Insert(leaf, j, m)
}

// deleteStart removes the mapping whose LBA start equals start; count is
// its sector count (every caller holds the full mapping), used to keep
// the MappedSectors cache current. A leaf left with at most leafMax/2
// mappings together with a neighbour is merged into it.
func (t *Map) deleteStart(start geom.Sector, count int64) {
	if len(t.leaves) == 0 {
		return
	}
	i := t.leafFor(start)
	leaf := t.leaves[i]
	j := firstEndingAfter(leaf, start)
	if j == len(leaf) || leaf[j].Lba.Start != start {
		return
	}
	t.n--
	t.mapped -= count
	leaf = slices.Delete(leaf, j, j+1)
	t.leaves[i] = leaf
	switch {
	case i > 0 && len(t.leaves[i-1])+len(leaf) <= leafMax/2:
		t.mergeNext(i - 1)
	case i+1 < len(t.leaves) && len(leaf)+len(t.leaves[i+1]) <= leafMax/2:
		t.mergeNext(i)
	case len(leaf) == 0:
		t.dropLeaf(i)
	}
}

// mergeNext appends leaf i+1 to leaf i and drops it.
func (t *Map) mergeNext(i int) {
	t.leaves[i] = append(t.leaves[i], t.leaves[i+1]...)
	t.dropLeaf(i + 1)
}

// dropLeaf removes leaf i, keeping its array as the spare.
func (t *Map) dropLeaf(i int) {
	t.spare = t.leaves[i]
	t.leaves = slices.Delete(t.leaves, i, i+1)
}

// visitOverlapping calls fn with every mapping overlapping q, in
// ascending LBA order, stopping early when fn returns false; the return
// value reports whether the walk ran to completion. It allocates
// nothing — the core of the zero-allocation lookup path.
func (t *Map) visitOverlapping(q geom.Extent, fn func(Mapping) bool) bool {
	if q.Empty() || len(t.leaves) == 0 {
		return true
	}
	i := t.leafFor(q.Start)
	j := firstEndingAfter(t.leaves[i], q.Start)
	for ; i < len(t.leaves); i, j = i+1, 0 {
		for _, m := range t.leaves[i][j:] {
			if m.Lba.Start >= q.End() {
				return true
			}
			if !fn(m) {
				return false
			}
		}
	}
	return true
}

// overlapScratch fills t.scratch with the mappings overlapping q, in
// ascending LBA order, so mutators can iterate a stable snapshot while
// they restructure the leaves. The buffer is reused across calls.
func (t *Map) overlapScratch(q geom.Extent) []Mapping {
	t.scratch = t.scratch[:0]
	t.visitOverlapping(q, func(m Mapping) bool {
		t.scratch = append(t.scratch, m)
		return true
	})
	return t.scratch
}

// InsertFunc maps the LBA extent lba to the physical run starting at
// pba, replacing any previous mapping of those sectors; overlapped
// mappings are split or truncated so the disjointness invariant is
// preserved. Each displaced piece — a portion of an older mapping that
// lba overwrote, with its physical position — is passed to fn in
// ascending LBA order; fn may be nil when the caller does not care. A
// false return stops further notifications, but the insert itself
// always completes. The Mapping value is only valid during the
// callback, and fn must not mutate the map. This is the
// allocation-free core of Insert.
func (t *Map) InsertFunc(lba geom.Extent, pba geom.Sector, fn func(Mapping) bool) {
	if lba.Empty() {
		return
	}
	t.DeleteFunc(lba, fn)
	t.insert(Mapping{Lba: lba, Pba: pba})
	if t.coalesce {
		t.coalesceAround(Mapping{Lba: lba, Pba: pba})
	}
}

// Append is InsertFunc(lba, pba, nil) for bulk loads in ascending LBA
// order. When lba starts at or after the end of the last mapping it is
// O(1): the mapping goes at the tail, coalesced with the last one when
// the map coalesces and they are contiguous, and the last leaf fills to
// leafMax before a new one starts. Any other lba takes InsertFunc's
// path, so every input order builds the same map as Insert.
func (t *Map) Append(lba geom.Extent, pba geom.Sector) {
	if lba.Empty() {
		return
	}
	n := len(t.leaves)
	if n > 0 {
		last := &t.leaves[n-1][len(t.leaves[n-1])-1]
		if lba.Start < last.Lba.End() {
			t.InsertFunc(lba, pba, nil)
			return
		}
		if t.coalesce && last.Lba.End() == lba.Start && last.PhysEnd() == pba {
			last.Lba.Count += lba.Count
			t.mapped += lba.Count
			return
		}
	}
	t.n++
	t.mapped += lba.Count
	if m := (Mapping{Lba: lba, Pba: pba}); n > 0 && len(t.leaves[n-1]) < leafMax {
		t.leaves[n-1] = append(t.leaves[n-1], m)
	} else {
		t.leaves = append(t.leaves, append(t.newLeaf(), m))
	}
}

// Insert is InsertFunc collecting the displaced pieces into a fresh
// slice — the convenient form for cold paths and tests.
func (t *Map) Insert(lba geom.Extent, pba geom.Sector) []Mapping {
	var displaced []Mapping
	t.InsertFunc(lba, pba, func(m Mapping) bool {
		displaced = append(displaced, m)
		return true
	})
	return displaced
}

// coalesceAround merges the just-inserted mapping with its LBA
// neighbours when they are contiguous in both address spaces. Because
// mappings are disjoint, only the immediate predecessor and successor
// can qualify, and both are found with one overlap query widened by a
// sector on each side.
func (t *Map) coalesceAround(m Mapping) {
	lo, hi := m, m
	t.visitOverlapping(geom.Ext(m.Lba.Start-1, m.Lba.Count+2), func(nb Mapping) bool {
		if nb.Lba.End() == m.Lba.Start && nb.PhysEnd() == m.Pba {
			lo = nb
		}
		if nb.Lba.Start == m.Lba.End() && m.PhysEnd() == nb.Pba {
			hi = nb
		}
		return true
	})
	if lo == m && hi == m {
		return
	}
	if lo != m {
		t.deleteStart(lo.Lba.Start, lo.Lba.Count)
	}
	if hi != m {
		t.deleteStart(hi.Lba.Start, hi.Lba.Count)
	}
	t.deleteStart(m.Lba.Start, m.Lba.Count)
	t.insert(Mapping{Lba: geom.Span(lo.Lba.Start, hi.Lba.End()), Pba: lo.Pba})
}

// DeleteFunc removes any mapping of the LBA extent, splitting mappings
// that straddle its boundary so their parts outside lba survive at
// their original physical placement. Each removed piece is passed to fn
// in ascending LBA order; fn may be nil. A false return stops further
// notifications, but the delete itself always completes. The Mapping
// value is only valid during the callback, and fn must not mutate the
// map. This is the allocation-free core of Delete and of InsertFunc's
// hole punch.
func (t *Map) DeleteFunc(lba geom.Extent, fn func(Mapping) bool) {
	if lba.Empty() {
		return
	}
	notify := fn != nil
	for _, old := range t.overlapScratch(lba) {
		t.deleteStart(old.Lba.Start, old.Lba.Count)
		if notify {
			ov := old.Lba.Intersect(lba)
			notify = fn(Mapping{Lba: ov, Pba: old.Pba + (ov.Start - old.Lba.Start)})
		}
		// A mapping overlapping lba leaves at most a left and a right
		// remainder.
		if old.Lba.Start < lba.Start {
			t.insert(Mapping{Lba: geom.Span(old.Lba.Start, lba.Start), Pba: old.Pba})
		}
		if old.Lba.End() > lba.End() {
			t.insert(Mapping{
				Lba: geom.Span(lba.End(), old.Lba.End()),
				Pba: old.Pba + (lba.End() - old.Lba.Start),
			})
		}
	}
}

// Delete is DeleteFunc collecting the removed pieces into a fresh
// slice — the convenient form for cold paths and tests.
func (t *Map) Delete(lba geom.Extent) []Mapping {
	var removed []Mapping
	t.DeleteFunc(lba, func(m Mapping) bool {
		removed = append(removed, m)
		return true
	})
	return removed
}

// resolveEmitter merges consecutive Resolved pieces that are contiguous
// in both address spaces before handing each maximal fragment to fn. It
// is the streaming equivalent of the old slice-building merge loop.
type resolveEmitter struct {
	fn   func(Resolved) bool
	pend Resolved
	have bool
}

// push stages r, flushing the pending fragment when r starts a new one;
// it returns false once fn has stopped the walk.
func (e *resolveEmitter) push(r Resolved) bool {
	if e.have {
		if e.pend.Lba.End() == r.Lba.Start && e.pend.Pba+e.pend.Lba.Count == r.Pba {
			// Physically contiguous with the pending piece: same fragment.
			e.pend.Lba.Count += r.Lba.Count
			e.pend.Identity = e.pend.Identity && r.Identity
			return true
		}
		if !e.fn(e.pend) {
			e.have = false
			return false
		}
	}
	e.pend, e.have = r, true
	return true
}

func (e *resolveEmitter) flush() {
	if e.have {
		e.fn(e.pend)
	}
}

// LookupFunc resolves the LBA extent like Lookup but streams each
// fragment to fn instead of building a slice, allocating nothing; a
// false return from fn stops the resolution. The Resolved value is only
// valid during the callback, and fn must not mutate the map.
func (t *Map) LookupFunc(q geom.Extent, fn func(Resolved) bool) {
	if q.Empty() {
		return
	}
	em := resolveEmitter{fn: fn}
	cur := q.Start
	completed := t.visitOverlapping(q, func(m Mapping) bool {
		if m.Lba.Start > cur {
			gap := geom.Span(cur, m.Lba.Start)
			if !em.push(Resolved{Lba: gap, Pba: gap.Start, Identity: true}) {
				return false
			}
		}
		ov := m.Lba.Intersect(q)
		if !em.push(Resolved{Lba: ov, Pba: m.Pba + (ov.Start - m.Lba.Start)}) {
			return false
		}
		cur = ov.End()
		return true
	})
	if !completed {
		return
	}
	if cur < q.End() {
		gap := geom.Span(cur, q.End())
		if !em.push(Resolved{Lba: gap, Pba: gap.Start, Identity: true}) {
			return
		}
	}
	em.flush()
}

// Lookup resolves the LBA extent into mappings, in ascending LBA order.
// Unmapped gaps are returned with Identity=true and Pba equal to the LBA
// start (the paper's "unwritten data is stored at a physical location
// corresponding to its LBA"). The pieces are maximal: consecutive pieces
// that are contiguous in both LBA and PBA space are merged — so each
// returned Resolved is one *fragment* and len(result) is the read's
// dynamic fragmentation. It is LookupFunc collecting into a fresh slice.
func (t *Map) Lookup(q geom.Extent) []Resolved {
	if q.Empty() {
		return nil
	}
	var out []Resolved
	t.LookupFunc(q, func(r Resolved) bool {
		out = append(out, r)
		return true
	})
	return out
}

// Resolved is one physically-contiguous fragment of a resolved LBA range.
type Resolved struct {
	Lba      geom.Extent
	Pba      geom.Sector
	Identity bool // true when this piece was never written (PBA == LBA)
}

// PhysExtent returns the physical extent of the fragment.
func (r Resolved) PhysExtent() geom.Extent { return geom.Ext(r.Pba, r.Lba.Count) }

// Fragments returns the number of physically-contiguous pieces a read of q
// would touch — the paper's dynamic fragmentation of that read. It
// counts via LookupFunc, so polling it never materializes a slice.
func (t *Map) Fragments(q geom.Extent) int {
	n := 0
	t.LookupFunc(q, func(Resolved) bool {
		n++
		return true
	})
	return n
}

// Walk visits every mapping in ascending LBA order until fn returns false.
func (t *Map) Walk(fn func(Mapping) bool) {
	for _, leaf := range t.leaves {
		for _, m := range leaf {
			if !fn(m) {
				return
			}
		}
	}
}

// CheckInvariants validates the map's structural invariants: every
// leaf holds 1..leafMax mappings, every adjacent pair of leaves more
// than leafMax/2 (so there are at most 4·Len/leafMax+1 leaves),
// mappings sorted by LBA start, non-empty and non-overlapping, and — for
// maps built with NewCoalesced — fully coalesced (no two adjacent
// mappings contiguous in both LBA and PBA space). Recovery and property
// tests call it after every mutation storm; it is O(n).
func (t *Map) CheckInvariants() error {
	if bound := 4*t.n/leafMax + 1; len(t.leaves) > bound {
		return fmt.Errorf("extmap: %d leaves for %d mappings, want at most %d", len(t.leaves), t.n, bound)
	}
	var (
		prev   Mapping
		count  int
		mapped int64
	)
	for i, leaf := range t.leaves {
		if len(leaf) == 0 || len(leaf) > leafMax {
			return fmt.Errorf("extmap: leaf %d holds %d mappings, want 1..%d", i, len(leaf), leafMax)
		}
		if i > 0 && len(t.leaves[i-1])+len(leaf) <= leafMax/2 {
			return fmt.Errorf("extmap: leaves %d and %d hold %d+%d mappings, want more than %d together",
				i-1, i, len(t.leaves[i-1]), len(leaf), leafMax/2)
		}
		for _, m := range leaf {
			count++
			mapped += m.Lba.Count
			if m.Lba.Empty() {
				return fmt.Errorf("extmap: empty mapping %v", m)
			}
			if count > 1 && prev.Lba.End() > m.Lba.Start {
				return fmt.Errorf("extmap: overlap %v then %v", prev, m)
			}
			if t.coalesce && count > 1 && prev.Lba.End() == m.Lba.Start && prev.PhysEnd() == m.Pba {
				return fmt.Errorf("extmap: uncoalesced adjacent mappings %v then %v", prev, m)
			}
			prev = m
		}
	}
	if count != t.n {
		return fmt.Errorf("extmap: Len()=%d but the leaves hold %d", t.n, count)
	}
	if mapped != t.mapped {
		return fmt.Errorf("extmap: MappedSectors()=%d but the leaves sum %d", t.mapped, mapped)
	}
	return nil
}

// Diff compares two maps' mapping sequences and returns a description of
// the first divergence, or "" when they are identical. Recovery tests
// use it to assert a replayed map is bit-identical to the live one.
func (t *Map) Diff(o *Map) string {
	if t.n != o.n {
		return fmt.Sprintf("mapping counts differ: %d vs %d", t.n, o.n)
	}
	var other []Mapping
	o.Walk(func(m Mapping) bool {
		other = append(other, m)
		return true
	})
	i := 0
	diff := ""
	t.Walk(func(m Mapping) bool {
		if other[i] != m {
			diff = fmt.Sprintf("mapping %d differs: %v vs %v", i, m, other[i])
			return false
		}
		i++
		return true
	})
	return diff
}

// Equal reports whether the two maps hold identical mapping sequences.
func (t *Map) Equal(o *Map) bool { return t.Diff(o) == "" }
