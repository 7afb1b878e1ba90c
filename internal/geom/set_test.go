package geom

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetAddMerges(t *testing.T) {
	s := NewSet()
	s.Add(Ext(0, 10))
	s.Add(Ext(20, 10))
	if len(s.exts) != 2 {
		t.Fatalf("%d extents, want 2", len(s.exts))
	}
	s.Add(Ext(10, 10)) // bridges the gap
	if len(s.exts) != 1 {
		t.Fatalf("after bridge %d extents, want 1", len(s.exts))
	}
	if got := s.exts[0]; got != Ext(0, 30) {
		t.Fatalf("merged extent = %v", got)
	}
	if s.Sectors() != 30 {
		t.Fatalf("Sectors = %d", s.Sectors())
	}
}

func TestSetAddOverlap(t *testing.T) {
	s := NewSet(Ext(0, 10), Ext(15, 5), Ext(30, 5))
	s.Add(Ext(5, 20)) // overlaps first two
	want := []Extent{Ext(0, 25), Ext(30, 5)}
	got := s.exts
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
}

func TestSetRemove(t *testing.T) {
	s := NewSet(Ext(0, 30))
	s.Remove(Ext(10, 10))
	want := []Extent{Ext(0, 10), Ext(20, 10)}
	got := s.exts
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("got %v want %v", got, want)
	}
	s.Remove(Ext(0, 100))
	if len(s.exts) != 0 {
		t.Fatalf("remove-all left %v", s.exts)
	}
	s.Remove(Ext(0, 10)) // removing from empty is a no-op
}

func TestSetContainsCoveredMissing(t *testing.T) {
	s := NewSet(Ext(10, 10), Ext(30, 10))
	if !s.Contains(Ext(12, 5)) {
		t.Error("should contain interior")
	}
	if s.Contains(Ext(15, 20)) {
		t.Error("straddles a hole")
	}
	cov := s.Covered(Ext(0, 50))
	if len(cov) != 2 || cov[0] != Ext(10, 10) || cov[1] != Ext(30, 10) {
		t.Errorf("Covered = %v", cov)
	}
}

// naiveSet is a reference model: a boolean per sector.
type naiveSet map[Sector]bool

func (n naiveSet) add(e Extent) {
	for s := e.Start; s < e.End(); s++ {
		n[s] = true
	}
}
func (n naiveSet) remove(e Extent) {
	for s := e.Start; s < e.End(); s++ {
		delete(n, s)
	}
}
func (n naiveSet) contains(e Extent) bool {
	for s := e.Start; s < e.End(); s++ {
		if !n[s] {
			return false
		}
	}
	return true
}

// TestSetAgainstModel runs a randomized operation sequence against both the
// interval set and a per-sector model and requires identical semantics.
func TestSetAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := NewSet()
	model := naiveSet{}
	const space = 300
	for i := 0; i < 5000; i++ {
		e := Ext(int64(rng.Intn(space)), int64(rng.Intn(20)))
		switch rng.Intn(3) {
		case 0:
			s.Add(e)
			model.add(e)
		case 1:
			s.Remove(e)
			model.remove(e)
		case 2:
			if got, want := s.Contains(e), model.contains(e); got != want {
				t.Fatalf("step %d: Contains(%v) = %v, model says %v", i, e, got, want)
			}
		}
		// Invariants: disjoint, non-adjacent, ascending; total matches model.
		exts := s.exts
		var total int64
		for j, x := range exts {
			if x.Empty() {
				t.Fatalf("step %d: empty extent in set", i)
			}
			if j > 0 && exts[j-1].End() >= x.Start {
				t.Fatalf("step %d: extents not normalized: %v", i, exts)
			}
			total += x.Count
		}
		if total != int64(len(model)) {
			t.Fatalf("step %d: set covers %d sectors, model %d", i, total, len(model))
		}
	}
}

// Property: after Add(e), Contains(e) always holds.
func TestSetAddContainsProperty(t *testing.T) {
	f := func(seeds []uint16, qs, qc uint16) bool {
		s := NewSet()
		for i := 0; i+1 < len(seeds); i += 2 {
			s.Add(Ext(int64(seeds[i]%500), int64(seeds[i+1]%40)))
		}
		q := Ext(int64(qs%500), int64(qc%40))
		s.Add(q)
		return s.Contains(q)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
