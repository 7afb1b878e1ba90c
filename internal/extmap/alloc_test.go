package extmap

import (
	"testing"

	"smrseek/internal/geom"
)

// The visitor APIs are the simulator's per-access hot path; these tests
// pin their steady-state allocation count at zero. "Steady state" means
// the map's leaves, spare leaf and overflow scratch buffer have been
// warmed by a few rounds of the same traffic — exactly the regime a long
// simulation run settles into.

func TestLookupFuncZeroAllocs(t *testing.T) {
	m := buildMap(10000)
	qs := [...]geom.Extent{
		geom.Ext(1<<20, 256),
		geom.Ext(5<<20, 1024),
		geom.Ext(9<<20, 64),
		geom.Ext(0, 4096),
	}
	n := 0
	allocs := testing.AllocsPerRun(100, func() {
		for _, q := range qs {
			m.LookupFunc(q, func(Resolved) bool {
				n++
				return true
			})
		}
	})
	if allocs != 0 {
		t.Fatalf("LookupFunc allocated %.1f times per run, want 0", allocs)
	}
	if n == 0 {
		t.Fatal("LookupFunc never delivered a fragment")
	}
}

func TestFragmentsZeroAllocs(t *testing.T) {
	m := buildMap(10000)
	allocs := testing.AllocsPerRun(100, func() {
		fragments(m, geom.Ext(3<<20, 2048))
	})
	if allocs != 0 {
		t.Fatalf("counting fragments allocated %.1f times per run, want 0", allocs)
	}
}

func TestInsertFuncZeroAllocs(t *testing.T) {
	for _, v := range []struct {
		name string
		mk   func() *Map
	}{{"New", New}, {"NewCoalesced", NewCoalesced}} {
		t.Run(v.name, func(t *testing.T) {
			m := v.mk()
			frontier := geom.Sector(1 << 30)
			// A fixed cycle of overwriting extents: after a warm-up round
			// the per-cycle churn repeats exactly, so the leaf arrays
			// absorb every split and delete.
			cycle := func() {
				for i := geom.Sector(0); i < 32; i++ {
					e := geom.Ext(i*100, 150) // overlaps the next extent: forces splits
					m.InsertFunc(e, frontier, nil)
					frontier += e.Count
				}
			}
			for i := 0; i < 3; i++ {
				cycle() // warm the leaves and scratch buffer
			}
			allocs := testing.AllocsPerRun(50, cycle)
			if allocs != 0 {
				t.Fatalf("InsertFunc allocated %.1f times per run in steady state, want 0", allocs)
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
