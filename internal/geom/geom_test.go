package geom

import (
	"testing"
	"testing/quick"
)

func TestExtBasics(t *testing.T) {
	e := Ext(10, 5)
	if e.End() != 15 {
		t.Errorf("End = %d, want 15", e.End())
	}
	if e.Empty() {
		t.Error("Ext(10,5) should not be empty")
	}
	if e.Bytes() != 5*SectorSize {
		t.Errorf("Bytes = %d, want %d", e.Bytes(), 5*SectorSize)
	}
	if (Extent{}).Empty() != true {
		t.Error("zero extent must be empty")
	}
	if got := e.String(); got != "[10,15)" {
		t.Errorf("String = %q", got)
	}
}

func TestSpanPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Span(5,3) should panic")
		}
	}()
	Span(5, 3)
}

// TestContains: a one-sector extent lies inside e exactly when its sector
// does, at both of e's ends.
func TestContains(t *testing.T) {
	e := Ext(10, 5)
	cases := []struct {
		s    Sector
		want bool
	}{{9, false}, {10, true}, {14, true}, {15, false}}
	for _, c := range cases {
		if got := e.ContainsExtent(Ext(c.s, 1)); got != c.want {
			t.Errorf("ContainsExtent(sector %d) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestContainsExtent(t *testing.T) {
	e := Ext(10, 10)
	if !e.ContainsExtent(Ext(10, 10)) {
		t.Error("extent should contain itself")
	}
	if !e.ContainsExtent(Ext(12, 3)) {
		t.Error("should contain interior")
	}
	if e.ContainsExtent(Ext(5, 10)) {
		t.Error("should not contain straddling extent")
	}
	if !e.ContainsExtent(Extent{}) {
		t.Error("empty extent contained in anything")
	}
}

func TestOverlapsIntersect(t *testing.T) {
	cases := []struct {
		a, b Extent
		want Extent
	}{
		{Ext(0, 10), Ext(5, 10), Ext(5, 5)},
		{Ext(0, 10), Ext(10, 5), Extent{}},
		{Ext(0, 10), Ext(20, 5), Extent{}},
		{Ext(5, 5), Ext(0, 20), Ext(5, 5)},
		{Ext(0, 0), Ext(0, 5), Extent{}},
	}
	for _, c := range cases {
		got := c.a.Intersect(c.b)
		if got != c.want {
			t.Errorf("%v ∩ %v = %v, want %v", c.a, c.b, got, c.want)
		}
		if c.a.Overlaps(c.b) != !c.want.Empty() {
			t.Errorf("Overlaps(%v,%v) inconsistent with Intersect", c.a, c.b)
		}
		// Symmetry.
		if got2 := c.b.Intersect(c.a); got2 != got {
			t.Errorf("Intersect not symmetric: %v vs %v", got, got2)
		}
	}
}

func TestUnion(t *testing.T) {
	if u, ok := Ext(0, 5).Union(Ext(5, 5)); !ok || u != Ext(0, 10) {
		t.Errorf("adjacent union = %v,%v", u, ok)
	}
	if u, ok := Ext(0, 5).Union(Ext(3, 5)); !ok || u != Ext(0, 8) {
		t.Errorf("overlap union = %v,%v", u, ok)
	}
	if _, ok := Ext(0, 5).Union(Ext(6, 5)); ok {
		t.Error("disjoint union should fail")
	}
	if u, ok := (Extent{}).Union(Ext(6, 5)); !ok || u != Ext(6, 5) {
		t.Error("union with empty should yield other")
	}
}

// Property: Intersect is commutative and contained in both operands.
func TestIntersectProperty(t *testing.T) {
	f := func(as, ac, bs, bc uint16) bool {
		a := Ext(int64(as), int64(ac%200))
		b := Ext(int64(bs), int64(bc%200))
		ab := a.Intersect(b)
		if ab != b.Intersect(a) {
			return false
		}
		if ab.Empty() {
			return true
		}
		return a.ContainsExtent(ab) && b.ContainsExtent(ab)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
