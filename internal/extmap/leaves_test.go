package extmap

import (
	"math/rand"
	"testing"
	"time"

	"smrseek/internal/geom"
)

// These tests reach the leaf structure itself: maps many leaves long,
// splits, and the merges that keep the leaf count bounded as a map
// shrinks. TestPropertyDifferential's maps stay a few leaves long.

// diffOps applies one operation to m and ref and fails on any
// divergence: kind 0 inserts ext at pba, 1 deletes ext, 2 looks it up.
// It checks the map's invariants after every mutation; the per-sector
// totals, which cost O(len(ref.pba)), only when full is set.
func diffOps(t *testing.T, m *Map, ref *refModel, coalesced bool, kind int, ext geom.Extent, pba geom.Sector, full bool) {
	t.Helper()
	switch kind {
	case 0:
		if got, want := flatten(m.Insert(ext, pba)), ref.insert(ext, pba); !sectorsEqual(got, want) {
			t.Fatalf("Insert(%v, %d) displaced %v, reference %v", ext, pba, got, want)
		}
	case 1:
		if got, want := flatten(m.Delete(ext)), ref.delete(ext); !sectorsEqual(got, want) {
			t.Fatalf("Delete(%v) removed %v, reference %v", ext, got, want)
		}
	default:
		if got, want := m.Lookup(ext), ref.lookup(ext); !resolvedEqual(got, want) {
			t.Fatalf("Lookup(%v) = %v, reference %v", ext, got, want)
		}
		return
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("after op %d on %v: %v", kind, ext, err)
	}
	if !full {
		return
	}
	if got, want := m.MappedSectors(), ref.mappedSectors(); got != want {
		t.Fatalf("MappedSectors = %d, reference %d", got, want)
	}
	if coalesced {
		if got, want := m.Len(), ref.runs(); got != want {
			t.Fatalf("coalesced Len = %d, reference runs %d", got, want)
		}
	}
}

// TestPropertyManyLeaves grows New and NewCoalesced maps past 2 000 live
// mappings with short frontier writes, then runs a delete-heavy phase
// that empties and merges most of their leaves, all against the
// reference model. Failures log the seed; rerun with -extmap.seed.
func TestPropertyManyLeaves(t *testing.T) {
	seed := *propSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("extmap many-leaves seed %d (rerun: go test ./internal/extmap -run ManyLeaves -extmap.seed %d)", seed, seed)

	const (
		device     = 1 << 15
		growOps    = 5000
		shrinkOps  = 2500
		checkEvery = 64
	)
	for vi, v := range []struct {
		name      string
		mk        func() *Map
		coalesced bool
	}{{"New", New, false}, {"NewCoalesced", NewCoalesced, true}} {
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(vi)))
			m := v.mk()
			ref := newRefModel(device)
			nextPba := geom.Sector(device)
			randExt := func(maxLen int64) geom.Extent {
				start := rng.Int63n(device - 1)
				return geom.Ext(start, rng.Int63n(min(maxLen, device-start))+1)
			}
			op := func(i, kind int, ext geom.Extent) {
				pba := nextPba
				if kind == 0 {
					nextPba += ext.Count
				}
				diffOps(t, m, ref, v.coalesced, kind, ext, pba, i%checkEvery == 0)
			}
			peakLen, peakLeaves := 0, 0
			for i := 0; i < growOps; i++ {
				kind := 0
				if rng.Intn(8) == 0 {
					kind = 2
				}
				op(i, kind, randExt(8))
				peakLen, peakLeaves = max(peakLen, m.Len()), max(peakLeaves, len(m.leaves))
			}
			if peakLen < 2000 {
				t.Fatalf("grow phase peaked at %d mappings, want >= 2000", peakLen)
			}
			for i := 0; i < shrinkOps; i++ {
				switch r := rng.Intn(10); {
				case r == 0:
					op(i, 0, randExt(8))
				case r == 1:
					op(i, 2, randExt(128))
				default:
					op(i, 1, randExt(128))
				}
			}
			// An empty delete changes nothing and runs the full checks.
			diffOps(t, m, ref, v.coalesced, 1, geom.Ext(0, 0), 0, true)
			if len(m.leaves) > peakLeaves/4 {
				t.Fatalf("delete phase left %d of %d peak leaves (%d mappings)", len(m.leaves), peakLeaves, m.Len())
			}
			t.Logf("peak %d mappings in %d leaves; %d mappings in %d leaves after deletes",
				peakLen, peakLeaves, m.Len(), len(m.leaves))
			if got, want := m.Lookup(geom.Ext(0, device)), ref.lookup(geom.Ext(0, device)); !resolvedEqual(got, want) {
				t.Fatalf("final sweep diverges: %v vs %v", got, want)
			}
		})
	}
}

// TestLeavesMergeAndEmpty fills a map with one-sector mappings in
// ascending order, thins out a run of middle leaves until they merge,
// then deletes whole leaves from the middle at once, checking the
// occupancy invariant and the leaf-count bound after every step.
func TestLeavesMergeAndEmpty(t *testing.T) {
	const n = 40 * leafMax / 2
	m := New()
	for i := int64(0); i < n; i++ {
		m.Insert(geom.Ext(2*i, 1), 1000*n+i)
	}
	check := func(when string) {
		t.Helper()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if bound := 4*m.Len()/leafMax + 1; len(m.leaves) > bound {
			t.Fatalf("%s: %d leaves for %d mappings, bound %d", when, len(m.leaves), m.Len(), bound)
		}
	}
	check("after fill")
	full := len(m.leaves)
	if full < 30 {
		t.Fatalf("fill built %d leaves, want a many-leaf map", full)
	}

	// Thin the middle: every odd mapping of the middle half goes, one
	// delete at a time, so half-empty neighbours must merge.
	for i := int64(n / 4); i < 3*n/4; i += 2 {
		m.Delete(geom.Ext(2*i+2, 1))
		check("thinning")
	}
	if len(m.leaves) >= full {
		t.Fatalf("thinning half the middle mappings left %d of %d leaves: nothing merged", len(m.leaves), full)
	}

	// Empty several whole leaves from the middle in one delete.
	before := len(m.leaves)
	m.Delete(geom.Span(2*n/3, 2*(2*n/3)))
	check("middle delete")
	if len(m.leaves) >= before {
		t.Fatalf("deleting a third of the map left %d of %d leaves", len(m.leaves), before)
	}

	// What survives is exactly the untouched mappings, in order.
	var want []Mapping
	for i := int64(0); i < n; i++ {
		lba := 2 * i
		thinned := i > n/4 && i <= 3*n/4 && (i-n/4)%2 == 1
		if thinned || (lba >= 2*n/3 && lba < 2*(2*n/3)) {
			continue
		}
		want = append(want, Mapping{Lba: geom.Ext(lba, 1), Pba: 1000*n + i})
	}
	var got []Mapping
	m.Walk(func(p Mapping) bool {
		got = append(got, p)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("%d mappings survive, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("mapping %d is %v, want %v", i, got[i], want[i])
		}
	}

	// Deleting everything leaves no leaf behind.
	m.Delete(geom.Ext(0, 2*n))
	check("delete all")
	if m.Len() != 0 || len(m.leaves) != 0 {
		t.Fatalf("empty map keeps %d mappings in %d leaves", m.Len(), len(m.leaves))
	}
}

// FuzzMapOps decodes three bytes per op — kind, start, length — into
// the differential run against the reference model, on New and
// NewCoalesced maps over a 320-sector space.
func FuzzMapOps(f *testing.F) {
	f.Add([]byte{0, 10, 8, 0, 14, 8, 2, 0, 40, 1, 12, 3, 2, 8, 16})
	f.Add([]byte{0, 0, 0, 1, 5, 0, 2, 255, 63, 0, 255, 63})
	// 256 descending one-sector writes (no two coalesce) split twice
	// and leave the first leaf full; a write into a hole at its end
	// splits it a third time. Deletes then thin the four leaves until
	// they merge.
	var grow []byte
	for s := 255; s >= 0; s-- {
		grow = append(grow, 0, byte(s), 1)
	}
	grow = append(grow, 1, 128, 10, 0, 128, 1)
	for s := 0; s < 256; s += 16 {
		grow = append(grow, 1, byte(s), 9, 2, byte(s), 40)
	}
	f.Add(grow)
	f.Fuzz(func(t *testing.T, data []byte) {
		const device = 256 + 64
		for vi, mk := range []func() *Map{New, NewCoalesced} {
			m, ref := mk(), newRefModel(device)
			nextPba := geom.Sector(device)
			for ops := data; len(ops) >= 3; ops = ops[3:] {
				ext := geom.Ext(geom.Sector(ops[1]), int64(ops[2]%64))
				diffOps(t, m, ref, vi == 1, int(ops[0]%3), ext, nextPba, true)
				if ops[0]%3 == 0 {
					nextPba += ext.Count
				}
			}
		}
	})
}

// leafMap builds a map leaf by leaf, sizes[i] mappings in leaf i, and
// the reference model holding the same mappings. Mapping k is LBA
// [4k, 4k+3) at PBA base+4k, so neighbours are a sector apart and a
// write at PBA base+LBA is contiguous with whatever it touches.
func leafMap(t *testing.T, mk func() *Map, base geom.Sector, sizes ...int) (*Map, *refModel) {
	t.Helper()
	m, total := mk(), 0
	for _, n := range sizes {
		total += n
	}
	ref := newRefModel(int64(4*total + 8))
	for k, leaf := 0, 0; leaf < len(sizes); leaf++ {
		l := make([]Mapping, 0, leafMax)
		for ; len(l) < sizes[leaf]; k++ {
			p := Mapping{Lba: geom.Ext(geom.Sector(4*k), 3), Pba: base + geom.Sector(4*k)}
			l = append(l, p)
			ref.insert(p.Lba, p.Pba)
			m.n++
			m.mapped += p.Lba.Count
		}
		m.leaves = append(m.leaves, l)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("built map %v: %v", sizes, err)
	}
	return m, ref
}

// TestSpliceEdges runs the splice's edges — runs spanning several
// leaves, coalescing across a leaf boundary, an overflowing leaf, and
// removals that shrink or empty several leaves at once — on New and
// NewCoalesced maps built leaf by leaf. diffOps checks each op's
// displaced pieces and their order against the reference model, the
// invariants and the per-sector totals; each case also pins the leaf
// count it leaves, so it is known to reach the shape it names.
func TestSpliceEdges(t *testing.T) {
	const base, fresh = geom.Sector(1 << 20), geom.Sector(1 << 30)
	// at returns the LBA of mapping idx of leaf in a map of sizes.
	at := func(sizes []int, leaf, idx int) geom.Sector {
		for _, n := range sizes[:leaf] {
			idx += n
		}
		return geom.Sector(4 * idx)
	}
	type op struct {
		kind int
		ext  geom.Extent
		pba  geom.Sector
	}
	for _, c := range []struct {
		name   string
		sizes  []int
		ops    func(s []int) []op
		leaves [2]int // want, on New and on NewCoalesced
	}{
		{"insert across three leaves", []int{100, 100, 100, 100}, func(s []int) []op {
			return []op{{0, geom.Span(at(s, 0, 50)+1, at(s, 2, 50)+2), fresh}}
		}, [2]int{3, 3}},
		{"delete across three leaves", []int{100, 100, 100, 100}, func(s []int) []op {
			return []op{{1, geom.Span(at(s, 0, 50)+1, at(s, 2, 50)+2), 0}}
		}, [2]int{3, 3}},
		{"coalesce with the last mapping of the previous leaf", []int{100, 100, 100}, func(s []int) []op {
			gap := at(s, 0, 99) + 3
			return []op{{0, geom.Ext(gap, 1), base + gap}}
		}, [2]int{3, 3}},
		{"coalesce with the first mapping of the next leaf", []int{100, 100, 100}, func(s []int) []op {
			return []op{{0, geom.Span(at(s, 0, 99), at(s, 1, 0)), base + at(s, 0, 99)}}
		}, [2]int{3, 3}},
		{"insert into a full leaf leaving both remainders", []int{60, 128, 60}, func(s []int) []op {
			return []op{{0, geom.Ext(at(s, 1, 64)+1, 1), fresh}}
		}, [2]int{4, 4}},
		{"insert across leaves overflowing the first", []int{128, 128, 128, 40}, func(s []int) []op {
			return []op{{0, geom.Span(at(s, 0, 127)+1, at(s, 2, 126)+2), fresh}}
		}, [2]int{3, 3}},
		{"delete shrinking two leaves to one mapping each", []int{40, 128, 128, 128, 40}, func(s []int) []op {
			return []op{{1, geom.Span(at(s, 1, 1), at(s, 3, 127)), 0}}
		}, [2]int{2, 2}},
		{"delete emptying a run of leaves", []int{40, 128, 128, 128, 40}, func(s []int) []op {
			return []op{{1, geom.Span(at(s, 1, 0), at(s, 4, 0)), 0}}
		}, [2]int{2, 2}},
		{"delete emptying the map", []int{100, 100, 100}, func(s []int) []op {
			return []op{{1, geom.Span(1, at(s, 2, 99)+3), 0}, {1, geom.Ext(0, 1), 0}}
		}, [2]int{0, 0}},
	} {
		for vi, v := range []struct {
			name string
			mk   func() *Map
		}{{"New", New}, {"NewCoalesced", NewCoalesced}} {
			t.Run(c.name+"/"+v.name, func(t *testing.T) {
				m, ref := leafMap(t, v.mk, base, c.sizes...)
				for _, o := range c.ops(c.sizes) {
					diffOps(t, m, ref, vi == 1, o.kind, o.ext, o.pba, true)
				}
				if got := len(m.leaves); got != c.leaves[vi] {
					t.Fatalf("%d leaves, want %d", got, c.leaves[vi])
				}
				all := geom.Ext(0, int64(len(ref.pba)))
				if got, want := m.Lookup(all), ref.lookup(all); !resolvedEqual(got, want) {
					t.Fatalf("final sweep diverges: %v vs %v", got, want)
				}
			})
		}
	}
}
