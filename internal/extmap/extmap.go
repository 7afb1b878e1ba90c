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
// is one such search and one splice that replaces the overlapped run
// with at most three mappings; it moves one leaf's mappings, and the
// leaf list only when a leaf splits, merges or a run spans leaves. That
// list holds one entry per 32–128 mappings, so it stays short even for
// the million-extent maps that long traces build up.
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

// leafMax is the most mappings one leaf holds. A splice that overflows
// a leaf cuts it into halves; one that leaves two neighbours holding at
// most leafMax/2 together merges them, so every adjacent pair of leaves
// holds more than leafMax/2 and a map of n mappings has at most
// 4·n/leafMax+1 leaves.
const leafMax = 128

// Map is the extent map. The zero value is an empty map ready to use.
type Map struct {
	// leaves holds the mappings in ascending LBA order, cut into
	// non-empty runs of at most leafMax; every leaf's array has capacity
	// leafMax, so inserts and merges within it never reallocate.
	leaves [][]Mapping
	// spare is the array of the last leaf a splice emptied or merged
	// away, reused by the next split so delete/insert churn does not
	// allocate.
	spare []Mapping
	n     int // number of mappings
	// coalesce, when set, merges mappings that are adjacent in LBA space
	// and contiguous in PBA space at Insert time, keeping the map minimal.
	coalesce bool
	// mapped caches the total mapped sector count so MappedSectors is
	// O(1); every splice keeps it current and CheckInvariants
	// cross-checks it against a direct sum.
	mapped int64
	// scratch stages a leaf that a splice overflows before it is cut in
	// two; it is reused across splices.
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

// dropLeaf removes leaf i, keeping its array as the spare.
func (t *Map) dropLeaf(i int) {
	t.spare = t.leaves[i]
	t.leaves = slices.Delete(t.leaves, i, i+1)
}

// splice is the map's one mutation: it punches q out of the map and,
// when add is set, maps q to the physical run at pba. One search finds
// the first mapping ending after q.Start, and a forward scan, which may
// cross into later leaves, the end of the run overlapping q; each
// displaced piece, clipped to q, goes to fn before anything moves. The
// run is then replaced in one splice by at most three mappings: the left
// remainder, the new mapping and the right remainder. A coalescing map
// also takes the LBA-adjacent neighbours into the run, so the new
// mapping merges with whatever precedes and follows it once the hole is
// punched — a remainder, or a neighbour in the same or the next leaf.
func (t *Map) splice(q geom.Extent, pba geom.Sector, add bool, fn func(Mapping) bool) {
	if q.Empty() || !add && t.n == 0 {
		return
	}
	if len(t.leaves) == 0 {
		t.leaves = append(t.leaves, t.newLeaf())
	}
	i := t.leafFor(q.Start)
	j := firstEndingAfter(t.leaves[i], q.Start)
	if j == len(t.leaves[i]) && i+1 < len(t.leaves) {
		i, j = i+1, 0
	}
	// The run is leaf i from j on, through leaf ei up to but excluding ej.
	ei, ej, removed, covered := i, j, 0, int64(0)
	notify := fn != nil
	for {
		leaf := t.leaves[ei]
		for ; ej < len(leaf) && leaf[ej].Lba.Start < q.End(); ej++ {
			old := leaf[ej]
			ov := old.Lba.Intersect(q)
			removed++
			covered += ov.Count
			if notify {
				notify = fn(Mapping{Lba: ov, Pba: old.Pba + (ov.Start - old.Lba.Start)})
			}
		}
		if ej < len(leaf) || ei+1 == len(t.leaves) || t.leaves[ei+1][0].Lba.Start >= q.End() {
			break
		}
		ei, ej = ei+1, 0
	}
	var left, mid, right Mapping
	if removed > 0 {
		if f := t.leaves[i][j]; f.Lba.Start < q.Start {
			left = Mapping{Lba: geom.Span(f.Lba.Start, q.Start), Pba: f.Pba}
		}
		if l := t.leaves[ei][ej-1]; l.Lba.End() > q.End() {
			right = Mapping{Lba: geom.Span(q.End(), l.Lba.End()), Pba: l.Pba + (q.End() - l.Lba.Start)}
		}
	}
	if add {
		mid = Mapping{Lba: q, Pba: pba}
		if t.coalesce {
			// A neighbour ending at q.Start or starting at q.End() is
			// never beside a remainder; it joins the run as one.
			pi, pj := i, j-1
			if j == 0 && i > 0 {
				pi, pj = i-1, len(t.leaves[i-1])-1
			}
			if pj >= 0 && t.leaves[pi][pj].Lba.End() == q.Start {
				left, i, j, removed = t.leaves[pi][pj], pi, pj, removed+1
			}
			ni, nj := ei, ej
			if nj == len(t.leaves[ni]) && ni+1 < len(t.leaves) {
				ni, nj = ni+1, 0
			}
			if nj < len(t.leaves[ni]) && t.leaves[ni][nj].Lba.Start == q.End() {
				right, ei, ej, removed = t.leaves[ni][nj], ni, nj+1, removed+1
			}
		}
	}
	var buf [3]Mapping
	repl := buf[:0]
	for _, m := range [...]Mapping{left, mid, right} {
		switch n := len(repl); {
		case m.Lba.Empty():
		case n > 0 && t.coalesce && repl[n-1].Lba.End() == m.Lba.Start && repl[n-1].PhysEnd() == m.Pba:
			repl[n-1].Lba.Count += m.Lba.Count
		default:
			repl = append(repl, m)
		}
	}
	t.n += len(repl) - removed
	t.mapped += mid.Lba.Count - covered
	if ei > i {
		// Keep the head of leaf i and the tail of leaf ei, drop the
		// leaves between, and splice into the end of leaf i.
		t.leaves[i] = t.leaves[i][:j]
		t.leaves[ei] = slices.Delete(t.leaves[ei], 0, ej)
		if ei > i+1 {
			t.spare = t.leaves[i+1]
			t.leaves = slices.Delete(t.leaves, i+1, ei)
		}
		ej = j
	}
	if leaf := t.leaves[i]; len(leaf)-(ej-j)+len(repl) <= leafMax {
		t.leaves[i] = slices.Replace(leaf, j, ej, repl...)
	} else {
		// Overflow: stage the leaf in scratch and cut it into halves.
		s := append(append(append(t.scratch[:0], leaf[:j]...), repl...), leaf[ej:]...)
		t.scratch = s
		t.leaves[i] = append(leaf[:0], s[:len(s)/2]...)
		t.leaves = slices.Insert(t.leaves, i+1, append(t.newLeaf(), s[len(s)/2:]...))
	}
	t.rebalance(i)
}

// rebalance restores the leaf invariants after a splice that changed
// leaves i to i+2 at most: an empty leaf is dropped and a leaf holding
// at most leafMax/2 together with the next one absorbs it, until every
// adjacent pair from leaf i-1 on holds more. Removing a run can shrink
// two leaves at once, so one merge is not always enough.
func (t *Map) rebalance(i int) {
	for k := max(i-1, 0); k <= i+2 && k < len(t.leaves); {
		switch {
		case len(t.leaves[k]) == 0:
			t.dropLeaf(k)
		case k+1 < len(t.leaves) && len(t.leaves[k])+len(t.leaves[k+1]) <= leafMax/2:
			t.leaves[k] = append(t.leaves[k], t.leaves[k+1]...)
			t.dropLeaf(k + 1)
		default:
			k++
		}
	}
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
	t.splice(lba, pba, true, fn)
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

// DeleteFunc removes any mapping of the LBA extent, splitting mappings
// that straddle its boundary so their parts outside lba survive at
// their original physical placement. Each removed piece is passed to fn
// in ascending LBA order; fn may be nil. A false return stops further
// notifications, but the delete itself always completes. The Mapping
// value is only valid during the callback, and fn must not mutate the
// map.
func (t *Map) DeleteFunc(lba geom.Extent, fn func(Mapping) bool) {
	t.splice(lba, 0, false, fn)
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

// LookupFunc resolves the LBA extent into mappings, in ascending LBA
// order, and streams each to fn, allocating nothing; a false return
// from fn stops the resolution. Unmapped gaps are resolved with
// Identity=true and Pba equal to the LBA start (the paper's "unwritten
// data is stored at a physical location corresponding to its LBA").
// The pieces are maximal: consecutive pieces that are contiguous in
// both LBA and PBA space are merged — so each Resolved is one
// *fragment*, and the number of calls is the read's dynamic
// fragmentation. The Resolved value is only valid during the callback,
// and fn must not mutate the map.
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

// Resolved is one physically-contiguous fragment of a resolved LBA range.
type Resolved struct {
	Lba      geom.Extent
	Pba      geom.Sector
	Identity bool // true when this piece was never written (PBA == LBA)
}

// PhysExtent returns the physical extent of the fragment.
func (r Resolved) PhysExtent() geom.Extent { return geom.Ext(r.Pba, r.Lba.Count) }

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
