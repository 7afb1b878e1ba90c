package stl

import (
	"testing"
	"testing/quick"

	"smrseek/internal/geom"
)

func TestNoLSIdentity(t *testing.T) {
	n := NewNoLS()
	if n.Name() != "NoLS" {
		t.Error("name")
	}
	fs := n.ResolveAppend(nil, geom.Ext(100, 50))
	if len(fs) != 1 || fs[0].Pba != 100 || fs[0].Lba != geom.Ext(100, 50) {
		t.Fatalf("Resolve = %v", fs)
	}
	ws := n.WriteAppend(nil, geom.Ext(7, 3))
	if len(ws) != 1 || ws[0].Pba != 7 {
		t.Fatalf("Write = %v", ws)
	}
}

func TestLSWriteAdvancesFrontier(t *testing.T) {
	l := NewLS(1000)
	if l.Name() != "LS" {
		t.Error("name")
	}
	w1 := l.WriteAppend(nil, geom.Ext(50, 10))
	if len(w1) != 1 || w1[0].Pba != 1000 {
		t.Fatalf("first write = %v", w1)
	}
	w2 := l.WriteAppend(nil, geom.Ext(500, 4))
	if w2[0].Pba != 1010 {
		t.Fatalf("second write pba = %d, want 1010 (frontier advanced)", w2[0].Pba)
	}
	if l.Frontier() != 1014 {
		t.Errorf("Frontier = %d", l.Frontier())
	}
	if l.LogSectors() != 14 {
		t.Errorf("LogSectors = %d", l.LogSectors())
	}
}

func TestLSResolveUnwrittenIsIdentity(t *testing.T) {
	l := NewLS(1000)
	fs := l.ResolveAppend(nil, geom.Ext(10, 20))
	if len(fs) != 1 || fs[0].Pba != 10 {
		t.Fatalf("unwritten resolve = %v", fs)
	}
}

func TestLSFragmentationScenario(t *testing.T) {
	// The Figure 6 scenario through the Layer interface.
	l := NewLS(100)
	l.WriteAppend(nil, geom.Ext(1, 6))
	l.WriteAppend(nil, geom.Ext(3, 1))
	l.WriteAppend(nil, geom.Ext(5, 1))
	fs := l.ResolveAppend(nil, geom.Ext(2, 4))
	if len(fs) != 4 {
		t.Fatalf("fragments = %v, want 4 pieces", fs)
	}
	// Fragment LBAs tile the request.
	cur := geom.Sector(2)
	for _, f := range fs {
		if f.Lba.Start != cur {
			t.Fatalf("fragments do not tile: %v", fs)
		}
		cur = f.Lba.End()
	}
	if cur != 6 {
		t.Fatalf("fragments do not cover request end: %v", fs)
	}
	// Back-to-back logical writes are physically adjacent: one fragment.
	l2 := NewLS(100)
	l2.WriteAppend(nil, geom.Ext(10, 4))
	l2.WriteAppend(nil, geom.Ext(14, 4))
	if got := l2.ResolveAppend(nil, geom.Ext(10, 8)); len(got) != 1 {
		t.Errorf("sequential writes resolved to %v", got)
	}
	// The coalesced map stores them as a single mapping too.
	if l2.Map().Len() != 1 {
		t.Errorf("sequential writes stored as %d mappings, want 1", l2.Map().Len())
	}
	for _, layer := range []*LS{l, l2} {
		if err := layer.Map().CheckInvariants(); err != nil {
			t.Error(err)
		}
	}
}

func TestFragmentPhysExtent(t *testing.T) {
	f := Fragment{Lba: geom.Ext(10, 5), Pba: 100}
	if f.PhysExtent() != geom.Ext(100, 5) {
		t.Errorf("PhysExtent = %v", f.PhysExtent())
	}
}

// Property: for any write sequence, resolving any range yields fragments
// that tile the range exactly, and a range just written resolves to a
// single fragment at the log head.
func TestLSResolveTilesProperty(t *testing.T) {
	f := func(ops []uint32, qs uint16, qc uint8) bool {
		l := NewLS(1 << 20)
		for _, op := range ops {
			l.WriteAppend(nil, geom.Ext(int64(op%5000), int64(op%128+1)))
		}
		q := geom.Ext(int64(qs%5200), int64(qc)+1)
		cur := q.Start
		for _, fr := range l.ResolveAppend(nil, q) {
			if fr.Lba.Start != cur {
				return false
			}
			cur = fr.Lba.End()
		}
		if cur != q.End() {
			return false
		}
		head := l.Frontier()
		w := l.WriteAppend(nil, q)
		if err := l.Map().CheckInvariants(); err != nil {
			t.Log(err)
			return false
		}
		return len(w) == 1 && w[0].Pba == head && len(l.ResolveAppend(nil, q)) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
