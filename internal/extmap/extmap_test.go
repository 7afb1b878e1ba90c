package extmap

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"smrseek/internal/geom"
)

func resolveEq(a, b Resolved) bool {
	return a.Lba == b.Lba && a.Pba == b.Pba && a.Identity == b.Identity
}

func TestEmptyMapIdentity(t *testing.T) {
	m := New()
	got := m.Lookup(geom.Ext(100, 50))
	want := Resolved{Lba: geom.Ext(100, 50), Pba: 100, Identity: true}
	if len(got) != 1 || !resolveEq(got[0], want) {
		t.Fatalf("Lookup on empty map = %v, want [%v]", got, want)
	}
	if m.Len() != 0 || m.MappedSectors() != 0 {
		t.Error("empty map should have no mappings")
	}
	if m.Lookup(geom.Extent{}) != nil {
		t.Error("empty query returns nil")
	}
}

func TestInsertLookupSimple(t *testing.T) {
	m := New()
	m.Insert(geom.Ext(10, 5), 1000)
	got := m.Lookup(geom.Ext(10, 5))
	if len(got) != 1 || got[0].Pba != 1000 || got[0].Identity {
		t.Fatalf("Lookup = %v", got)
	}
	// A read straddling mapped and unmapped space has 3 fragments:
	// identity prefix, relocated middle, identity suffix.
	got = m.Lookup(geom.Ext(5, 15))
	if len(got) != 3 {
		t.Fatalf("straddling read fragments = %v", got)
	}
	if !got[0].Identity || got[0].Lba != geom.Ext(5, 5) || got[0].Pba != 5 {
		t.Errorf("prefix = %+v", got[0])
	}
	if got[1].Identity || got[1].Lba != geom.Ext(10, 5) || got[1].Pba != 1000 {
		t.Errorf("middle = %+v", got[1])
	}
	if !got[2].Identity || got[2].Lba != geom.Ext(15, 5) || got[2].Pba != 15 {
		t.Errorf("suffix = %+v", got[2])
	}
}

func TestInsertOverwriteSplits(t *testing.T) {
	m := New()
	m.Insert(geom.Ext(0, 100), 1000) // [0,100) -> 1000
	m.Insert(geom.Ext(40, 20), 2000) // punch a hole in the middle
	if m.Len() != 3 {
		t.Fatalf("Len = %d, want 3", m.Len())
	}
	got := m.Lookup(geom.Ext(0, 100))
	want := []Resolved{
		{Lba: geom.Ext(0, 40), Pba: 1000},
		{Lba: geom.Ext(40, 20), Pba: 2000},
		{Lba: geom.Ext(60, 40), Pba: 1060},
	}
	if len(got) != len(want) {
		t.Fatalf("Lookup = %v, want %v", got, want)
	}
	for i := range got {
		if !resolveEq(got[i], want[i]) {
			t.Errorf("fragment %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLookupMergesContiguousPhys(t *testing.T) {
	m := New()
	// Two LBA-adjacent writes that also landed physically adjacent (the
	// log-structured common case) must resolve as ONE fragment.
	m.Insert(geom.Ext(10, 5), 1000)
	m.Insert(geom.Ext(15, 5), 1005)
	got := m.Lookup(geom.Ext(10, 10))
	if len(got) != 1 || got[0].Lba != geom.Ext(10, 10) || got[0].Pba != 1000 {
		t.Fatalf("merge failed: %v", got)
	}
	// Adjacent identity gaps merge with each other too.
	m2 := New()
	m2.Insert(geom.Ext(50, 1), 999)
	m2.Insert(geom.Ext(50, 1), 50) // map back to identity position
	got = m2.Lookup(geom.Ext(45, 10))
	if len(got) != 1 || got[0].Lba != geom.Ext(45, 10) || got[0].Pba != 45 {
		t.Fatalf("identity-position merge failed: %v", got)
	}
	if got[0].Identity {
		t.Error("piece containing an explicit mapping is not Identity")
	}
}

// fragments counts the physically-contiguous pieces a read of q touches —
// the paper's dynamic fragmentation of that read — through LookupFunc,
// as the simulator does, so counting materializes no slice.
func fragments(m *Map, q geom.Extent) int {
	n := 0
	m.LookupFunc(q, func(Resolved) bool {
		n++
		return true
	})
	return n
}

func TestFragmentsCountsPaperExample(t *testing.T) {
	// Figure 6: LBA 1..6 contiguous, then writes to LBA 3 and 5 fragment
	// the range; a read of 2..5 touches 3 extents (2 | 4 | ... 3,5 at log).
	m := New()
	dev := int64(100)
	frontier := dev
	write := func(e geom.Extent) {
		m.Insert(e, frontier)
		frontier += e.Count
	}
	write(geom.Ext(1, 6)) // initial layout: LBAs 1..6 at log, contiguous
	write(geom.Ext(3, 1)) // update LBA 3
	write(geom.Ext(5, 1)) // update LBA 5
	// Read LBA 2..5 inclusive = Ext(2, 4): pieces are 2 (old log), 3
	// (new), 4 (old), 5 (new) — 4 fragments.
	if got := fragments(m, geom.Ext(2, 4)); got != 4 {
		t.Fatalf("Fragments = %d, want 4 (%v)", got, m.Lookup(geom.Ext(2, 4)))
	}
	// Defragment: rewrite 2..5 at the frontier; now a re-read is 1 fragment.
	write(geom.Ext(2, 4))
	if got := fragments(m, geom.Ext(2, 4)); got != 1 {
		t.Fatalf("after defrag Fragments = %d, want 1", got)
	}
	// But LBA 1..2 now spans old log position and new — extra fragment,
	// exactly the paper's t_F caveat.
	if got := fragments(m, geom.Ext(1, 2)); got != 2 {
		t.Fatalf("Fragments(1..2) = %d, want 2", got)
	}
}

func TestWalkOrderAndEarlyStop(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		m.Insert(geom.Ext(int64(i*10), 5), int64(10000+i*5))
	}
	var starts []int64
	m.Walk(func(mm Mapping) bool {
		starts = append(starts, mm.Lba.Start)
		return len(starts) < 10
	})
	if len(starts) != 10 {
		t.Fatalf("early stop failed, visited %d", len(starts))
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			t.Fatalf("walk out of order: %v", starts)
		}
	}
}

// sectorModel is the brute-force reference: one PBA per LBA sector, -1
// meaning identity.
type sectorModel []int64

func newSectorModel(n int) sectorModel {
	m := make(sectorModel, n)
	for i := range m {
		m[i] = -1
	}
	return m
}

func (s sectorModel) insert(lba geom.Extent, pba geom.Sector) {
	for i := int64(0); i < lba.Count; i++ {
		s[lba.Start+i] = pba + i
	}
}

// resolve produces merged fragments exactly as Map.Lookup should.
func (s sectorModel) resolve(q geom.Extent) []Resolved {
	var out []Resolved
	for i := q.Start; i < q.End(); i++ {
		pba := s[i]
		ident := pba < 0
		if ident {
			pba = i
		}
		if n := len(out); n > 0 {
			prev := &out[n-1]
			if prev.Lba.End() == i && prev.Pba+prev.Lba.Count == pba {
				prev.Lba.Count++
				prev.Identity = prev.Identity && ident
				continue
			}
		}
		out = append(out, Resolved{Lba: geom.Ext(i, 1), Pba: pba, Identity: ident})
	}
	return out
}

func TestMapAgainstSectorModel(t *testing.T) {
	const space = 400
	rng := rand.New(rand.NewSource(7))
	m := New()
	model := newSectorModel(space)
	frontier := int64(space)
	for step := 0; step < 4000; step++ {
		e := geom.Ext(int64(rng.Intn(space-30)), int64(1+rng.Intn(30)))
		if rng.Intn(2) == 0 {
			m.Insert(e, frontier)
			model.insert(e, frontier)
			frontier += e.Count
		} else {
			got := m.Lookup(e)
			want := model.resolve(e)
			if len(got) != len(want) {
				t.Fatalf("step %d: Lookup(%v) = %v, want %v", step, e, got, want)
			}
			for i := range got {
				if !resolveEq(got[i], want[i]) {
					t.Fatalf("step %d: fragment %d = %+v, want %+v", step, i, got[i], want[i])
				}
			}
		}
		if step%200 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: after any sequence of inserts, looking up an inserted extent
// returns exactly one fragment at the inserted PBA if it was the last
// write of that range.
func TestLastWriteWinsProperty(t *testing.T) {
	f := func(ops []uint32, qs, qc uint8) bool {
		m := New()
		frontier := int64(1 << 20)
		for _, op := range ops {
			start := int64(op % 1000)
			count := int64(op%64 + 1)
			m.Insert(geom.Ext(start, count), frontier)
			frontier += count
		}
		q := geom.Ext(int64(qs), int64(qc%32+1))
		m.Insert(q, frontier)
		got := m.Lookup(q)
		if len(got) != 1 {
			return false
		}
		return got[0].Pba == frontier && got[0].Lba == q && !got[0].Identity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Lookup always tiles the query exactly — fragments are in
// order, non-overlapping in LBA, and their union is the query.
func TestLookupTilesQueryProperty(t *testing.T) {
	f := func(ops []uint32, qs uint16, qc uint8) bool {
		m := New()
		frontier := int64(1 << 20)
		for _, op := range ops {
			m.Insert(geom.Ext(int64(op%2000), int64(op%64+1)), frontier)
			frontier += int64(op%64 + 1)
		}
		q := geom.Ext(int64(qs%2100), int64(qc)+1)
		cur := q.Start
		for _, r := range m.Lookup(q) {
			if r.Lba.Start != cur || r.Lba.Empty() {
				return false
			}
			cur = r.Lba.End()
		}
		return cur == q.End()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMappedSectors(t *testing.T) {
	m := New()
	m.Insert(geom.Ext(0, 10), 100)
	m.Insert(geom.Ext(5, 10), 200) // overlaps 5 sectors
	if got := m.MappedSectors(); got != 15 {
		t.Fatalf("MappedSectors = %d, want 15", got)
	}
}

func TestInsertReturnsDisplaced(t *testing.T) {
	m := New()
	m.Insert(geom.Ext(0, 100), 1000)
	displaced := m.Insert(geom.Ext(40, 20), 2000)
	if len(displaced) != 1 {
		t.Fatalf("displaced = %v", displaced)
	}
	if displaced[0].Lba != geom.Ext(40, 20) || displaced[0].Pba != 1040 {
		t.Errorf("displaced piece = %+v", displaced[0])
	}
	// Overwriting a range spanning two mappings displaces two pieces.
	displaced = m.Insert(geom.Ext(30, 20), 3000)
	if len(displaced) != 2 {
		t.Fatalf("displaced = %v", displaced)
	}
	if displaced[0].Lba != geom.Ext(30, 10) || displaced[0].Pba != 1030 {
		t.Errorf("piece 0 = %+v", displaced[0])
	}
	if displaced[1].Lba != geom.Ext(40, 10) || displaced[1].Pba != 2000 {
		t.Errorf("piece 1 = %+v", displaced[1])
	}
	// Writing unmapped space displaces nothing.
	if d := m.Insert(geom.Ext(5000, 10), 4000); d != nil {
		t.Errorf("unmapped insert displaced %v", d)
	}
}

func TestDelete(t *testing.T) {
	m := New()
	m.Insert(geom.Ext(0, 100), 1000)
	removed := m.Delete(geom.Ext(40, 20))
	if len(removed) != 1 || removed[0].Lba != geom.Ext(40, 20) || removed[0].Pba != 1040 {
		t.Fatalf("removed = %v", removed)
	}
	// The hole resolves to identity now.
	got := m.Lookup(geom.Ext(40, 20))
	if len(got) != 1 || !got[0].Identity {
		t.Fatalf("after delete Lookup = %v", got)
	}
	// Surrounding pieces survive with correct placement.
	got = m.Lookup(geom.Ext(0, 40))
	if len(got) != 1 || got[0].Pba != 1000 {
		t.Fatalf("prefix = %v", got)
	}
	got = m.Lookup(geom.Ext(60, 40))
	if len(got) != 1 || got[0].Pba != 1060 {
		t.Fatalf("suffix = %v", got)
	}
	if m.Delete(geom.Extent{}) != nil {
		t.Error("empty delete should be nil")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: total displaced sectors on insert equal previously mapped
// sectors in the overwritten range.
func TestDisplacedConservationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	m := New()
	frontier := int64(1 << 20)
	mapped := newSectorModel(2000)
	for i := 0; i < 3000; i++ {
		e := geom.Ext(int64(rng.Intn(1900)), int64(1+rng.Intn(64)))
		var want int64
		for s := e.Start; s < e.End(); s++ {
			if mapped[s] >= 0 {
				want++
			}
		}
		displaced := m.Insert(e, frontier)
		var got int64
		for _, d := range displaced {
			got += d.Lba.Count
		}
		if got != want {
			t.Fatalf("step %d: displaced %d sectors, want %d", i, got, want)
		}
		mapped.insert(e, frontier)
		frontier += e.Count
	}
}

func TestCoalescedInsertMergesNeighbors(t *testing.T) {
	m := NewCoalesced()
	// Sequential log writes: LBA-adjacent and PBA-contiguous — one mapping.
	m.Insert(geom.Ext(10, 5), 1000)
	m.Insert(geom.Ext(15, 5), 1005)
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after coalescing", m.Len())
	}
	got := m.Lookup(geom.Ext(10, 10))
	if len(got) != 1 || got[0].Lba != geom.Ext(10, 10) || got[0].Pba != 1000 {
		t.Fatalf("Lookup = %v", got)
	}
	// A gap-filling write merges with BOTH neighbours.
	m2 := NewCoalesced()
	m2.Insert(geom.Ext(0, 4), 2000)
	m2.Insert(geom.Ext(8, 4), 2008)
	if m2.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m2.Len())
	}
	m2.Insert(geom.Ext(4, 4), 2004)
	if m2.Len() != 1 {
		t.Fatalf("Len = %d, want 1 after bridging insert", m2.Len())
	}
	if err := m2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// LBA-adjacent but physically discontiguous mappings stay separate.
	m3 := NewCoalesced()
	m3.Insert(geom.Ext(0, 4), 3000)
	m3.Insert(geom.Ext(4, 4), 9000)
	if m3.Len() != 2 {
		t.Fatalf("Len = %d, want 2 for discontiguous neighbours", m3.Len())
	}
	if err := m3.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescedAgainstSectorModel replays the randomized sector-model
// workload against a coalescing map: Lookup results must be unchanged by
// coalescing, and the coalesced invariant must hold throughout.
func TestCoalescedAgainstSectorModel(t *testing.T) {
	const space = 400
	rng := rand.New(rand.NewSource(11))
	m := NewCoalesced()
	model := newSectorModel(space)
	frontier := int64(space)
	for step := 0; step < 4000; step++ {
		e := geom.Ext(int64(rng.Intn(space-30)), int64(1+rng.Intn(30)))
		if rng.Intn(2) == 0 {
			m.Insert(e, frontier)
			model.insert(e, frontier)
			frontier += e.Count
		} else {
			got := m.Lookup(e)
			want := model.resolve(e)
			if len(got) != len(want) {
				t.Fatalf("step %d: Lookup(%v) = %v, want %v", step, e, got, want)
			}
			for i := range got {
				if !resolveEq(got[i], want[i]) {
					t.Fatalf("step %d: fragment %d = %+v, want %+v", step, i, got[i], want[i])
				}
			}
		}
		if step%200 == 0 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalesceAtSectorZero(t *testing.T) {
	m := NewCoalesced()
	m.Insert(geom.Ext(0, 4), 1000) // start-1 == -1 must not trip the neighbour query
	m.Insert(geom.Ext(4, 4), 1004)
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDiffAndEqual(t *testing.T) {
	a, b := New(), New()
	if d := a.Diff(b); d != "" {
		t.Fatalf("two empty maps differ: %s", d)
	}
	a.Insert(geom.Ext(0, 10), 1000)
	b.Insert(geom.Ext(0, 10), 1000)
	if d := a.Diff(b); d != "" {
		t.Fatalf("identical maps differ: %s", d)
	}
	b.Insert(geom.Ext(20, 5), 2000)
	if a.Diff(b) == "" {
		t.Fatal("maps with different counts must differ")
	}
	a.Insert(geom.Ext(20, 5), 2001) // same shape, different PBA
	if d := a.Diff(b); d == "" {
		t.Fatal("maps with different PBAs must differ")
	}
	// Same contents built in a different insertion order are equal.
	c, d := New(), New()
	c.Insert(geom.Ext(0, 10), 100)
	c.Insert(geom.Ext(50, 10), 200)
	d.Insert(geom.Ext(50, 10), 200)
	d.Insert(geom.Ext(0, 10), 100)
	if diff := c.Diff(d); diff != "" {
		t.Fatalf("order-independent equality failed: %s", diff)
	}
}

// TestAppendMatchesInsert pins Append's contract under New and
// NewCoalesced: an ascending stream — contiguous neighbours,
// LBA-adjacent but physically distant neighbours, gaps, sector 0, and
// several leaves' worth of mappings — builds the same map as Insert, and
// so does a shuffled, overlapping stream, which Append hands to the
// general insert path.
func TestAppendMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var asc []Mapping
	lba, pba := geom.Sector(0), geom.Sector(1<<20)
	for len(asc) < 3*leafMax+7 {
		n := rng.Int63n(16) + 1
		asc = append(asc, Mapping{Lba: geom.Ext(lba, n), Pba: pba})
		switch rng.Intn(3) {
		case 0: // contiguous in both spaces: coalesces
			pba += n
		case 1: // LBA-adjacent, physically elsewhere
			pba += n + 1 + rng.Int63n(8)
		default: // a gap in LBA space
			lba += 1 + rng.Int63n(8)
			pba += n
		}
		lba += n
	}
	shuffled := slices.Clone(asc)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for i := 0; i < 50; i++ { // overlaps, some reaching back over the tail
		shuffled = append(shuffled, Mapping{Lba: geom.Ext(rng.Int63n(lba), rng.Int63n(64)+1), Pba: pba})
		pba += 64
	}
	for _, mk := range []struct {
		name string
		new  func() *Map
	}{{"New", New}, {"NewCoalesced", NewCoalesced}} {
		for _, in := range []struct {
			name string
			ms   []Mapping
		}{{"ascending", asc}, {"out-of-order", shuffled}} {
			got, want := mk.new(), mk.new()
			for _, m := range in.ms {
				got.Append(m.Lba, m.Pba)
				want.Insert(m.Lba, m.Pba)
			}
			got.Append(geom.Ext(lba+100, 0), 0) // an empty extent is a no-op
			if err := got.CheckInvariants(); err != nil {
				t.Fatalf("%s/%s: %v", mk.name, in.name, err)
			}
			if d := want.Diff(got); d != "" {
				t.Fatalf("%s/%s: Append diverges from Insert: %s", mk.name, in.name, d)
			}
			if got.MappedSectors() != want.MappedSectors() {
				t.Fatalf("%s/%s: MappedSectors %d, want %d", mk.name, in.name, got.MappedSectors(), want.MappedSectors())
			}
		}
	}
}
