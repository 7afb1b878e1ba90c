package extmap

import (
	"flag"
	"math/rand"
	"slices"
	"testing"
	"time"

	"smrseek/internal/geom"
)

// Property-based differential test: the extent map is compared,
// operation by operation, against a brutally simple reference model — a
// flat per-sector array. The array cannot represent mapping *structure*
// (how sectors group into mappings), so structure-dependent results are
// compared as per-sector sets; everything the simulator actually
// consumes (Lookup fragments, displaced/removed sectors, mapped totals)
// is derivable from the array exactly.

var propSeed = flag.Int64("extmap.seed", 0,
	"property test seed (0 = derive from time; the chosen seed is logged)")

// refModel maps each LBA sector to its PBA, or -1 when unmapped.
type refModel struct {
	pba []geom.Sector
}

func newRefModel(sectors int64) *refModel {
	m := &refModel{pba: make([]geom.Sector, sectors)}
	for i := range m.pba {
		m.pba[i] = -1
	}
	return m
}

// sectorMapping is one (lba, pba) pair, the unit both sides are
// flattened to before comparison.
type sectorMapping struct {
	lba, pba geom.Sector
}

// insert maps lba to the run starting at pba and returns the per-sector
// mappings it displaced, in ascending LBA order.
func (m *refModel) insert(lba geom.Extent, pba geom.Sector) []sectorMapping {
	var displaced []sectorMapping
	for i := int64(0); i < lba.Count; i++ {
		s := lba.Start + i
		if m.pba[s] != -1 {
			displaced = append(displaced, sectorMapping{lba: s, pba: m.pba[s]})
		}
		m.pba[s] = pba + i
	}
	return displaced
}

// delete unmaps lba and returns the per-sector mappings it removed.
func (m *refModel) delete(lba geom.Extent) []sectorMapping {
	var removed []sectorMapping
	for i := int64(0); i < lba.Count; i++ {
		s := lba.Start + i
		if m.pba[s] != -1 {
			removed = append(removed, sectorMapping{lba: s, pba: m.pba[s]})
			m.pba[s] = -1
		}
	}
	return removed
}

// resolve returns the physical address serving each sector of q
// (identity for unmapped sectors) plus whether the sector is unmapped.
func (m *refModel) resolve(s geom.Sector) (geom.Sector, bool) {
	if m.pba[s] == -1 {
		return s, true
	}
	return m.pba[s], false
}

// lookup derives the exact LookupFunc result from the array: maximal runs
// of physically-consecutive sectors, Identity = every sector unmapped.
func (m *refModel) lookup(q geom.Extent) []Resolved {
	var out []Resolved
	for i := int64(0); i < q.Count; i++ {
		s := q.Start + i
		pba, ident := m.resolve(s)
		if n := len(out); n > 0 && out[n-1].Pba+out[n-1].Lba.Count == pba &&
			out[n-1].Lba.End() == s {
			out[n-1].Lba.Count++
			out[n-1].Identity = out[n-1].Identity && ident
			continue
		}
		out = append(out, Resolved{Lba: geom.Ext(s, 1), Pba: pba, Identity: ident})
	}
	return out
}

// mappedSectors counts mapped sectors; runs counts maximal runs
// contiguous in both spaces (what a fully-coalesced map must hold).
func (m *refModel) mappedSectors() (total int64) {
	for _, p := range m.pba {
		if p != -1 {
			total++
		}
	}
	return total
}

func (m *refModel) runs() int {
	n := 0
	for s, p := range m.pba {
		if p == -1 {
			continue
		}
		if s == 0 || m.pba[s-1] == -1 || m.pba[s-1]+1 != p {
			n++
		}
	}
	return n
}

// flatten expands mappings to per-sector pairs so displaced/removed
// pieces can be compared independently of how the map groups them.
func flatten(ms []Mapping) []sectorMapping {
	var out []sectorMapping
	for _, p := range ms {
		for i := int64(0); i < p.Lba.Count; i++ {
			out = append(out, sectorMapping{lba: p.Lba.Start + i, pba: p.Pba + i})
		}
	}
	return out
}

func sectorsEqual(a, b []sectorMapping) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func resolvedEqual(a, b []Resolved) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPropertyDifferential drives New and NewCoalesced maps through a
// random mix of Insert/Delete/Lookup — wrappers and visitors alike —
// against the reference model,
// checking structural invariants after every mutation. Failures log the
// seed; rerun with -extmap.seed to reproduce.
func TestPropertyDifferential(t *testing.T) {
	seed := *propSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("extmap property seed %d (rerun: go test ./internal/extmap -run Property -extmap.seed %d)", seed, seed)

	const (
		device = 4096 // small address space => dense overlap/split/merge traffic
		ops    = 3000
	)
	variants := []struct {
		name      string
		mk        func() *Map
		coalesced bool
	}{
		{"New", New, false},
		{"NewCoalesced", NewCoalesced, true},
	}
	for vi, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed + int64(vi)))
			m := v.mk()
			ref := newRefModel(device)
			nextPba := geom.Sector(device) // a log frontier past the LBA space
			randExt := func() geom.Extent {
				start := rng.Int63n(device - 1)
				return geom.Ext(start, rng.Int63n(min(64, device-start))+1)
			}
			for i := 0; i < ops; i++ {
				switch op := rng.Intn(10); {
				case op < 5: // insert at the frontier (log-structured style)
					lba := randExt()
					pba := nextPba
					if rng.Intn(8) == 0 {
						// Occasionally reuse a low PBA so coalescing and
						// physical-contiguity merging get exercised harder.
						pba = rng.Int63n(device)
					} else {
						nextPba += lba.Count
					}
					var got []sectorMapping
					if i%2 == 0 {
						// Drive the visitor API directly; Insert is its
						// slice-collecting wrapper, so alternating covers
						// both entry points differentially.
						var pieces []Mapping
						m.InsertFunc(lba, pba, func(p Mapping) bool {
							pieces = append(pieces, p)
							return true
						})
						got = flatten(pieces)
					} else {
						got = flatten(m.Insert(lba, pba))
					}
					want := ref.insert(lba, pba)
					if !sectorsEqual(got, want) {
						t.Fatalf("op %d: Insert(%v, %d) displaced %v, reference %v", i, lba, pba, got, want)
					}
				case op < 7:
					lba := randExt()
					// What a delete must report: each mapping's part inside
					// lba, one piece per mapping, in LBA order.
					var want []Mapping
					m.Walk(func(p Mapping) bool {
						if ov := p.Lba.Intersect(lba); !ov.Empty() {
							want = append(want, Mapping{Lba: ov, Pba: p.Pba + (ov.Start - p.Lba.Start)})
						}
						return true
					})
					if refWant := ref.delete(lba); !sectorsEqual(flatten(want), refWant) {
						t.Fatalf("op %d: mappings under %v are %v, reference %v", i, lba, want, refWant)
					}
					// Delete is DeleteFunc's slice-collecting wrapper;
					// rotate through it, the visitor, and a visitor that
					// stops after one piece — which must still delete all
					// of lba (the MappedSectors check below sees it if not).
					var got []Mapping
					switch i % 3 {
					case 0:
						got = collectDelete(m, lba)
					case 1:
						m.DeleteFunc(lba, func(p Mapping) bool {
							got = append(got, p)
							return true
						})
					default:
						m.DeleteFunc(lba, func(p Mapping) bool {
							got = append(got, p)
							return false
						})
						want = want[:min(1, len(want))]
					}
					if !slices.Equal(got, want) {
						t.Fatalf("op %d: delete of %v (form %d) reported %v, want %v", i, lba, i%3, got, want)
					}
				default:
					q := randExt()
					got := collectLookup(m, q)
					want := ref.lookup(q)
					if !resolvedEqual(got, want) {
						t.Fatalf("op %d: Lookup(%v) = %v, reference %v", i, q, got, want)
					}
					var streamed []Resolved
					m.LookupFunc(q, func(r Resolved) bool {
						streamed = append(streamed, r)
						return true
					})
					if !resolvedEqual(streamed, want) {
						t.Fatalf("op %d: LookupFunc(%v) streamed %v, reference %v", i, q, streamed, want)
					}
					if len(want) > 1 {
						// Early stop yields exactly the first fragment.
						var first []Resolved
						m.LookupFunc(q, func(r Resolved) bool {
							first = append(first, r)
							return false
						})
						if !resolvedEqual(first, want[:1]) {
							t.Fatalf("op %d: LookupFunc(%v) early stop %v, want %v", i, q, first, want[:1])
						}
					}
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("op %d: %v", i, err)
				}
				if got, want := m.MappedSectors(), ref.mappedSectors(); got != want {
					t.Fatalf("op %d: MappedSectors = %d, reference %d", i, got, want)
				}
				if v.coalesced {
					if got, want := m.Len(), ref.runs(); got != want {
						t.Fatalf("op %d: coalesced Len = %d, reference runs %d", i, got, want)
					}
				}
			}
			// Final whole-space sweep: the two sides agree sector by sector.
			full := collectLookup(m, geom.Ext(0, device))
			if want := ref.lookup(geom.Ext(0, device)); !resolvedEqual(full, want) {
				t.Fatalf("final sweep diverges: %v vs %v", full, want)
			}
		})
	}
}
