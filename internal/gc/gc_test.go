package gc

import (
	"math/rand"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
)

// tiny returns a small log: 8 segments of 256 sectors above a
// 4096-sector device.
func tiny(p Policy) Config {
	return Config{
		DeviceSectors:  4096,
		LogSectors:     8 * 256,
		SegmentSectors: 256,
		Policy:         p,
	}
}

func mustNew(t *testing.T, cfg Config) *Layer {
	t.Helper()
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestNewValidation(t *testing.T) {
	bad := []Config{
		{},
		{DeviceSectors: -1, LogSectors: 256, SegmentSectors: 256},
		{DeviceSectors: 0, LogSectors: 100, SegmentSectors: 64},
		{DeviceSectors: 0, LogSectors: 256, SegmentSectors: 256}, // too few segments
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	l := mustNew(t, tiny(Greedy))
	if l.Name() != "SegLS(greedy)" {
		t.Errorf("name = %s", l.Name())
	}
	if mustNew(t, tiny(CostBenefit)).Name() != "SegLS(cost-benefit)" {
		t.Error("cost-benefit name wrong")
	}
}

func TestWriteResolveRoundTrip(t *testing.T) {
	l := mustNew(t, tiny(Greedy))
	fs := l.WriteAppend(nil, geom.Ext(100, 50))
	if len(fs) != 1 || fs[0].Pba != 4096 {
		t.Fatalf("first write = %v", fs)
	}
	rs := l.ResolveAppend(nil, geom.Ext(100, 50))
	if len(rs) != 1 || rs[0].Pba != 4096 {
		t.Fatalf("Resolve = %v", rs)
	}
	// Unwritten data resolves in place.
	rs = l.ResolveAppend(nil, geom.Ext(2000, 10))
	if len(rs) != 1 || rs[0].Pba != 2000 {
		t.Fatalf("identity Resolve = %v", rs)
	}
}

func TestWriteSplitsAcrossSegments(t *testing.T) {
	l := mustNew(t, tiny(Greedy))
	fs := l.WriteAppend(nil, geom.Ext(0, 600)) // 256+256+88
	if len(fs) != 3 {
		t.Fatalf("fragments = %v", fs)
	}
	cur := geom.Sector(0)
	for _, f := range fs {
		if f.Lba.Start != cur {
			t.Fatalf("fragments do not tile: %v", fs)
		}
		cur = f.Lba.End()
	}
	// Pieces land in consecutive segments, physically contiguous here
	// because segments are handed out in order initially.
	if fs[1].Pba != fs[0].Pba+256 {
		t.Errorf("segment handoff: %v", fs)
	}
}

func TestCleaningTriggersAndFreesSpace(t *testing.T) {
	l := mustNew(t, tiny(Greedy))
	// Overwrite the same 256-sector LBA range repeatedly: old segments
	// become fully dead, so cleaning is cheap and must keep up.
	// 40 segments' worth into an 8-segment log: place panics when no
	// segment is free, so finishing means cleaning recycled them.
	for i := 0; i < 40; i++ {
		l.WriteAppend(nil, geom.Ext(0, 256))
	}
	if len(l.free) < 2 {
		t.Errorf("free segments = %d", len(l.free))
	}
	// Dead-segment cleaning relocates nothing: WAF stays 1.
	if waf := stl.WAF(l); waf != 1 {
		t.Errorf("WAF = %v, want 1 for fully-dead victims", waf)
	}
	// Data still resolves correctly.
	rs := l.ResolveAppend(nil, geom.Ext(0, 256))
	if len(rs) != 1 {
		t.Fatalf("Resolve after cleaning = %v", rs)
	}
}

func TestCleaningRelocatesLiveData(t *testing.T) {
	l := mustNew(t, tiny(Greedy))
	// Fill the log with distinct live LBAs (working set ~1.5 segments of
	// slack), forcing cleanings that must move live data.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 60; i++ {
		l.WriteAppend(nil, geom.Ext(int64(rng.Intn(1300)), 32))
	}
	if l.ExtraSectors() == 0 {
		t.Fatal("cleaning never relocated live data")
	}
	if waf := stl.WAF(l); waf <= 1 {
		t.Errorf("WAF = %v, want > 1", waf)
	}
	ops := l.PendingMaintenance()
	if len(ops) == 0 {
		t.Fatal("no maintenance ops surfaced")
	}
	var reads, writes int64
	for _, op := range ops {
		if op.Kind == disk.Read {
			reads += op.Extent.Count
		} else {
			writes += op.Extent.Count
		}
	}
	if reads != writes || writes != l.ExtraSectors() {
		t.Errorf("maintenance reads=%d writes=%d extra=%d", reads, writes, l.ExtraSectors())
	}
	if len(l.PendingMaintenance()) != 0 {
		t.Error("pending not drained")
	}
	// All data still resolves to exactly one location covering its range.
	for lba := int64(0); lba < 1300; lba += 64 {
		cur := lba
		for _, r := range l.ResolveAppend(nil, geom.Ext(lba, 64)) {
			if r.Lba.Start != cur {
				t.Fatalf("resolution hole at %d: %v", lba, r)
			}
			cur = r.Lba.End()
		}
		if cur != lba+64 {
			t.Fatalf("resolution short at %d", lba)
		}
	}
}

func TestGreedyPicksDeadestSegment(t *testing.T) {
	l := mustNew(t, tiny(Greedy))
	// Segment 0: fill with LBA A, then fully overwrite (dead).
	l.WriteAppend(nil, geom.Ext(0, 256))
	// Segment 1: fill with LBA B (stays live).
	l.WriteAppend(nil, geom.Ext(1000, 256))
	// Segment 2: overwrites LBA A → segment 0 now fully dead.
	l.WriteAppend(nil, geom.Ext(0, 256))
	if l.segs[0].live != 0 {
		t.Fatalf("segment 0 live = %d", l.segs[0].live)
	}
	victim, ok := l.pickVictim()
	if !ok || victim != 0 {
		t.Fatalf("victim = %d,%v, want 0", victim, ok)
	}
}

func TestCostBenefitPrefersOldSegments(t *testing.T) {
	l := mustNew(t, tiny(CostBenefit))
	// Two half-dead segments; the first is older.
	l.WriteAppend(nil, geom.Ext(0, 128))    // seg0 half A
	l.WriteAppend(nil, geom.Ext(500, 128))  // seg0 half B -> seg0 full
	l.WriteAppend(nil, geom.Ext(0, 128))    // kills A (seg0 half dead)
	l.WriteAppend(nil, geom.Ext(1000, 128)) // seg1 fills
	l.WriteAppend(nil, geom.Ext(500, 128))  // kills B? no — B=500 was in seg0; this kills seg0's other half
	// Advance the clock with unrelated writes.
	l.WriteAppend(nil, geom.Ext(2000, 256))
	victim, ok := l.pickVictim()
	if !ok || victim != 0 {
		t.Fatalf("victim = %d,%v, want the old dead segment 0", victim, ok)
	}
}

// TestFullyLiveLogStopsCleaning fills all but one segment of the log
// with distinct LBAs, so free segments fall below freeLowWater and the
// cleaner runs on a log where nothing is reclaimable: pickVictim must
// refuse every full segment rather than churn, and nothing may move.
func TestFullyLiveLogStopsCleaning(t *testing.T) {
	cfg := tiny(Greedy)
	l := mustNew(t, cfg)
	for i := 0; i < len(l.segs)-1; i++ {
		l.WriteAppend(nil, geom.Ext(int64(i)*cfg.SegmentSectors, cfg.SegmentSectors))
	}
	if n, ops := l.ExtraSectors(), l.PendingMaintenance(); n != 0 || len(ops) != 0 {
		t.Fatalf("cleaning moved %d sectors in %d ops, want none (nothing reclaimable)", n, len(ops))
	}
	if len(l.free) >= freeLowWater {
		t.Fatalf("%d free segments: the writes never reached the cleaner (low watermark %d)", len(l.free), freeLowWater)
	}
	if v, ok := l.pickVictim(); ok {
		t.Errorf("pickVictim chose segment %d of a fully-live log", v)
	}
}

// TestLiveCountInvariant cross-checks per-segment live counters against
// the extent map after a random workload.
func TestLiveCountInvariant(t *testing.T) {
	l := mustNew(t, tiny(CostBenefit))
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 500; i++ {
		l.WriteAppend(nil, geom.Ext(int64(rng.Intn(1200)), int64(1+rng.Intn(64))))
	}
	liveBySeg := make([]int64, len(l.segs))
	l.m.Walk(func(m extmap.Mapping) bool {
		liveBySeg[l.segOf(m.Pba)] += m.Lba.Count
		return true
	})
	for i, s := range l.segs {
		if s.live != liveBySeg[i] {
			t.Fatalf("segment %d live = %d, map says %d", i, s.live, liveBySeg[i])
		}
	}
}
