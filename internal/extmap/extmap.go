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
// The implementation is an AVL tree keyed by LBA start. AVL (rather than
// a simpler structure) keeps worst-case O(log n) behaviour for the
// million-extent maps that long traces build up.
package extmap

import (
	"fmt"

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

// node is an AVL tree node holding one mapping.
type node struct {
	m           Mapping
	left, right *node
	height      int
}

// maxAVLHeight bounds the tree height for iterative traversals: an AVL
// tree of n nodes is at most 1.44·log2(n) deep, so 96 levels cover far
// more mappings than a 64-bit address space can hold.
const maxAVLHeight = 96

// nodeSlabSize is how many nodes one freelist refill allocates at once,
// so a growing map costs one allocation per slab instead of per mapping.
const nodeSlabSize = 64

// Map is the extent map. The zero value is an empty map ready to use.
type Map struct {
	root *node
	n    int // number of mappings
	// coalesce, when set, merges mappings that are adjacent in LBA space
	// and contiguous in PBA space at Insert time, keeping the map minimal.
	coalesce bool
	// mapped caches the total mapped sector count so MappedSectors is
	// O(1); insertNode/deleteStart keep it current and CheckInvariants
	// cross-checks it against a direct tree fold.
	mapped int64
	// free is the node freelist (threaded through node.right): delete
	// and split churn recycles nodes here instead of hitting the GC, and
	// refills come in slabs of nodeSlabSize.
	free *node
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
// gauge; CheckInvariants cross-checks it against a direct tree fold.
func (t *Map) MappedSectors() int64 { return t.mapped }

// sumSectors is the direct tree fold behind the MappedSectors
// cross-check: the recursion carries no closure state.
func sumSectors(n *node) int64 {
	if n == nil {
		return 0
	}
	return sumSectors(n.left) + n.m.Lba.Count + sumSectors(n.right)
}

func h(n *node) int {
	if n == nil {
		return 0
	}
	return n.height
}

func update(n *node) *node {
	n.height = 1 + max(h(n.left), h(n.right))
	return n
}

func rotateRight(y *node) *node {
	x := y.left
	y.left = x.right
	x.right = y
	update(y)
	return update(x)
}

func rotateLeft(x *node) *node {
	y := x.right
	x.right = y.left
	y.left = x
	update(x)
	return update(y)
}

func balance(n *node) *node {
	update(n)
	switch bf := h(n.left) - h(n.right); {
	case bf > 1:
		if h(n.left.left) < h(n.left.right) {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case bf < -1:
		if h(n.right.right) < h(n.right.left) {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

// newNode takes a node from the freelist, refilling it with a fresh slab
// when empty.
func (t *Map) newNode(m Mapping) *node {
	if t.free == nil {
		slab := make([]node, nodeSlabSize)
		for i := range slab[:len(slab)-1] {
			slab[i].right = &slab[i+1]
		}
		t.free = &slab[0]
	}
	n := t.free
	t.free = n.right
	*n = node{m: m, height: 1}
	return n
}

// recycle returns a detached node to the freelist. The node must no
// longer be reachable from the tree.
func (t *Map) recycle(n *node) {
	*n = node{right: t.free}
	t.free = n
}

// insertNode adds a mapping known not to overlap any existing mapping.
func (t *Map) insertNode(m Mapping) {
	t.root = t.insert(t.root, m)
	t.n++
	t.mapped += m.Lba.Count
}

func (t *Map) insert(n *node, m Mapping) *node {
	if n == nil {
		return t.newNode(m)
	}
	if m.Lba.Start < n.m.Lba.Start {
		n.left = t.insert(n.left, m)
	} else {
		n.right = t.insert(n.right, m)
	}
	return balance(n)
}

// deleteStart removes the mapping whose LBA start equals start; count is
// its sector count (every caller holds the full mapping), used to keep
// the MappedSectors cache current.
func (t *Map) deleteStart(start geom.Sector, count int64) {
	var deleted bool
	t.root, deleted = t.del(t.root, start)
	if deleted {
		t.n--
		t.mapped -= count
	}
}

func (t *Map) del(n *node, start geom.Sector) (*node, bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch {
	case start < n.m.Lba.Start:
		n.left, deleted = t.del(n.left, start)
	case start > n.m.Lba.Start:
		n.right, deleted = t.del(n.right, start)
	default:
		deleted = true
		if n.left == nil {
			r := n.right
			t.recycle(n)
			return r, true
		}
		if n.right == nil {
			l := n.left
			t.recycle(n)
			return l, true
		}
		// Replace with successor; the recursion recycles the successor's
		// node when it bottoms out in one of the cases above.
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.m = succ.m
		n.right, _ = t.del(n.right, succ.m.Lba.Start)
	}
	return balance(n), deleted
}

// visitOverlapping calls fn with every mapping overlapping q, in
// ascending LBA order, stopping early when fn returns false; the return
// value reports whether the walk ran to completion. The traversal is
// iterative over a fixed-size stack, so it allocates nothing — the core
// of the zero-allocation lookup path.
//
// Pruning relies on the disjointness invariant: mappings sorted by start
// never overlap, so at most ONE mapping starts before q.Start yet
// reaches into q (the predecessor of q.Start). A node starting below
// q.Start therefore never has a left-subtree overlap — whether or not
// it overlaps q itself — and a node starting at or past q.End() ends
// the in-order walk.
func (t *Map) visitOverlapping(q geom.Extent, fn func(Mapping) bool) bool {
	if q.Empty() {
		return true
	}
	var stack [maxAVLHeight]*node
	top := 0
	n := t.root
	for {
		for n != nil {
			switch {
			case n.m.Lba.Start >= q.Start:
				stack[top] = n
				top++
				n = n.left
			case n.m.Lba.End() > q.Start:
				// Starts before q but reaches into it: visit it, skip
				// its left subtree.
				stack[top] = n
				top++
				n = nil
			default:
				n = n.right
			}
		}
		if top == 0 {
			return true
		}
		top--
		nd := stack[top]
		if nd.m.Lba.Start >= q.End() {
			return true
		}
		if nd.m.Lba.Overlaps(q) && !fn(nd.m) {
			return false
		}
		n = nd.right
	}
}

// overlapScratch fills t.scratch with the mappings overlapping q, in
// ascending LBA order, so mutators can iterate a stable snapshot while
// they restructure the tree. The buffer is reused across calls.
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
	t.insertNode(Mapping{Lba: lba, Pba: pba})
	if t.coalesce {
		t.coalesceAround(Mapping{Lba: lba, Pba: pba})
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
	t.insertNode(Mapping{Lba: geom.Span(lo.Lba.Start, hi.Lba.End()), Pba: lo.Pba})
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
			t.insertNode(Mapping{Lba: geom.Span(old.Lba.Start, lba.Start), Pba: old.Pba})
		}
		if old.Lba.End() > lba.End() {
			t.insertNode(Mapping{
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
	walk(t.root, fn)
}

func walk(n *node, fn func(Mapping) bool) bool {
	if n == nil {
		return true
	}
	if !walk(n.left, fn) {
		return false
	}
	if !fn(n.m) {
		return false
	}
	return walk(n.right, fn)
}

// CheckInvariants validates the map's structural invariants: AVL balance
// and height bookkeeping, mappings sorted by LBA start, non-empty and
// non-overlapping, and — for maps built with NewCoalesced — fully
// coalesced (no two adjacent mappings contiguous in both LBA and PBA
// space). Recovery and property tests call it after every mutation
// storm; it is O(n).
func (t *Map) CheckInvariants() error {
	var walkErr error
	var check func(n *node) int
	check = func(n *node) int {
		if n == nil || walkErr != nil {
			return 0
		}
		lh := check(n.left)
		rh := check(n.right)
		if walkErr != nil {
			return 0
		}
		if d := lh - rh; d < -1 || d > 1 {
			walkErr = fmt.Errorf("extmap: unbalanced node %v (lh=%d rh=%d)", n.m, lh, rh)
		}
		got := 1 + max(lh, rh)
		if n.height != got {
			walkErr = fmt.Errorf("extmap: stale height at %v: %d != %d", n.m, n.height, got)
		}
		return got
	}
	check(t.root)
	if walkErr != nil {
		return walkErr
	}
	// prev is held by value: a pointer to each visited mapping would cost
	// an allocation per mapping.
	var prev Mapping
	count := 0
	t.Walk(func(m Mapping) bool {
		count++
		if m.Lba.Empty() {
			walkErr = fmt.Errorf("extmap: empty mapping %v", m)
			return false
		}
		if count > 1 && prev.Lba.End() > m.Lba.Start {
			walkErr = fmt.Errorf("extmap: overlap %v then %v", prev, m)
			return false
		}
		if t.coalesce && count > 1 && prev.Lba.End() == m.Lba.Start && prev.PhysEnd() == m.Pba {
			walkErr = fmt.Errorf("extmap: uncoalesced adjacent mappings %v then %v", prev, m)
			return false
		}
		prev = m
		return true
	})
	if walkErr != nil {
		return walkErr
	}
	if count != t.n {
		return fmt.Errorf("extmap: Len()=%d but walk saw %d", t.n, count)
	}
	if got := sumSectors(t.root); got != t.mapped {
		return fmt.Errorf("extmap: MappedSectors()=%d but tree fold sums %d", t.mapped, got)
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
