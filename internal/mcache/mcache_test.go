package mcache

import (
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
)

// tiny returns a small geometry: 8 zones of 1024 sectors data, 2 zones
// of cache.
func tiny() Config {
	return Config{
		DeviceSectors: 8 * 1024,
		ZoneSectors:   1024,
		CacheSectors:  2 * 1024,
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
		{DeviceSectors: 100, ZoneSectors: 0, CacheSectors: 100},
		{DeviceSectors: 100, ZoneSectors: 64, CacheSectors: 64},
		{DeviceSectors: 128, ZoneSectors: 64, CacheSectors: 100},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := New(tiny()); err != nil {
		t.Errorf("tiny config rejected: %v", err)
	}
}

func TestUnwrittenResolvesInPlace(t *testing.T) {
	l := mustNew(t, tiny())
	fs := l.ResolveAppend(nil, geom.Ext(100, 50))
	if len(fs) != 1 || fs[0].Pba != 100 {
		t.Fatalf("Resolve = %v", fs)
	}
	if l.Name() != "MediaCache" {
		t.Error("name")
	}
}

func TestWriteGoesToCacheThenMergesInPlace(t *testing.T) {
	l := mustNew(t, tiny())
	fs := l.WriteAppend(nil, geom.Ext(100, 10))
	if len(fs) != 1 || fs[0].Pba != 8*1024 {
		t.Fatalf("first write = %v (cache starts at %d)", fs, 8*1024)
	}
	// Until merged, reads of that LBA hit the cache region.
	rs := l.ResolveAppend(nil, geom.Ext(100, 10))
	if len(rs) != 1 || rs[0].Pba != 8*1024 {
		t.Fatalf("Resolve = %v", rs)
	}
	if l.used != 10 {
		t.Errorf("cached sectors = %d", l.used)
	}
	l.merge()
	// After the merge the data is back in LBA order.
	rs = l.ResolveAppend(nil, geom.Ext(100, 10))
	if len(rs) != 1 || rs[0].Pba != 100 {
		t.Fatalf("post-merge Resolve = %v", rs)
	}
	if l.ExtraSectors() != 1024 {
		t.Errorf("merge rewrote %d sectors, want one zone", l.ExtraSectors())
	}
	if l.used != 0 {
		t.Error("cache should be empty after merge")
	}
}

func TestMergeEmitsMaintenanceIO(t *testing.T) {
	l := mustNew(t, tiny())
	l.WriteAppend(nil, geom.Ext(100, 10))  // zone 0
	l.WriteAppend(nil, geom.Ext(2000, 10)) // zone 1
	l.merge()
	ops := l.PendingMaintenance()
	// Per dirty zone: zone read + 1 cache-fragment read + zone write.
	var reads, writes, zoneWrites int
	for _, op := range ops {
		switch op.Kind {
		case disk.Read:
			reads++
		case disk.Write:
			writes++
			if op.Extent.Count == 1024 {
				zoneWrites++
			}
		}
	}
	if reads != 4 || writes != 2 || zoneWrites != 2 {
		t.Fatalf("ops: reads=%d writes=%d zoneWrites=%d (%v)", reads, writes, zoneWrites, ops)
	}
	// Draining clears the queue.
	if len(l.PendingMaintenance()) != 0 {
		t.Error("pending not cleared")
	}
}

func TestTriggerMergesAutomatically(t *testing.T) {
	l := mustNew(t, tiny())
	// Cache is 2048 sectors; trigger 0.8 → merge at 1639+.
	for i := 0; i < 9; i++ {
		l.WriteAppend(nil, geom.Ext(int64(i)*1024, 200)) // 200 sectors each, distinct zones
	}
	if l.ExtraSectors() == 0 {
		t.Fatal("trigger merge did not fire")
	}
	if stl.WAF(l) <= 1 {
		t.Errorf("WAF = %v, want > 1 (zone rewrites)", stl.WAF(l))
	}
}

func TestWriteLargerThanCache(t *testing.T) {
	l := mustNew(t, tiny())
	// 3000 sectors > 2048-sector cache: must split and merge mid-write.
	fs := l.WriteAppend(nil, geom.Ext(0, 3000))
	if len(fs) < 2 {
		t.Fatalf("oversized write fragments = %v", fs)
	}
	var total int64
	cur := geom.Sector(0)
	for _, f := range fs {
		if f.Lba.Start != cur {
			t.Fatalf("fragments do not tile the write: %v", fs)
		}
		cur = f.Lba.End()
		total += f.Lba.Count
	}
	if total != 3000 {
		t.Fatalf("covered %d of 3000 sectors", total)
	}
	if l.ExtraSectors() == 0 {
		t.Error("mid-write merge expected")
	}
}

func TestWriteAmplificationAccounting(t *testing.T) {
	l := mustNew(t, tiny())
	l.WriteAppend(nil, geom.Ext(0, 100))
	l.merge()
	if l.HostSectors() != 100 {
		t.Errorf("host = %d", l.HostSectors())
	}
	if l.ExtraSectors() != 1024 { // one zone rewrite
		t.Errorf("extra = %d", l.ExtraSectors())
	}
	waf := stl.WAF(l)
	if waf != 11.24 {
		t.Errorf("WAF = %v, want 11.24", waf)
	}
	// Zero-write layer reports WAF 1.
	l2 := mustNew(t, tiny())
	if stl.WAF(l2) != 1 {
		t.Error("empty layer WAF should be 1")
	}
}

// TestZoneConstraintsRespected checks that every physical write the layer
// emits is legal on zoned media: a cache append lands inside the cache
// region at its write pointer (which returns to the region's start only
// after a merge), and a maintenance write rewrites one whole data zone,
// from its start, after reading that zone.
func TestZoneConstraintsRespected(t *testing.T) {
	cfg := tiny()
	l := mustNew(t, cfg)
	cacheStart, cacheEnd := cfg.DeviceSectors, cfg.DeviceSectors+cfg.CacheSectors
	wp := cacheStart
	merged := false // a merge has run since the write pointer last restarted
	seed := uint64(7)
	var extra int64 // ExtraSectors grows by whole zones on every merge
	merges := 0     // checks that saw a merge
	checkOps := func() {
		var read geom.Extent
		for _, op := range l.PendingMaintenance() {
			switch op.Kind {
			case disk.Read:
				if op.Extent.End() <= cfg.DeviceSectors {
					read = op.Extent // a data-zone read, not a cache read
				}
			case disk.Write:
				e := op.Extent
				if e.Start%cfg.ZoneSectors != 0 || e.Count != cfg.ZoneSectors || e.End() > cfg.DeviceSectors {
					t.Fatalf("maintenance write %v is not a whole data zone", e)
				}
				if read != e {
					t.Fatalf("zone rewrite %v does not follow a read of that zone (last zone read %v)", e, read)
				}
				read = geom.Extent{}
			}
		}
		if n := l.ExtraSectors(); n > extra {
			extra, merged = n, true
			merges++
		}
	}
	for i := 0; i < 400; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		lba := geom.Ext(int64(seed>>33)%(cfg.DeviceSectors-700), 1+int64(seed>>20)%700)
		frags := l.WriteAppend(nil, lba)
		checkOps()
		for _, f := range frags {
			p := f.PhysExtent()
			if p.Start < cacheStart || p.End() > cacheEnd {
				t.Fatalf("cache append %v outside the cache region [%d, %d)", p, cacheStart, cacheEnd)
			}
			switch {
			case p.Start == wp:
			case p.Start == cacheStart && merged:
				merged = false
			default:
				t.Fatalf("cache append %v is not at the write pointer %d", p, wp)
			}
			wp = p.End()
		}
	}
	l.merge()
	checkOps()
	if merges < 10 {
		t.Fatalf("only %d merges: the workload does not exercise merging", merges)
	}
}

func TestEmptyWriteNoop(t *testing.T) {
	l := mustNew(t, tiny())
	if l.WriteAppend(nil, geom.Extent{}) != nil {
		t.Error("empty write should return nil")
	}
	if l.HostSectors() != 0 {
		t.Error("empty write must not count")
	}
	l.merge() // no dirty zones: no-op
	if l.ExtraSectors() != 0 || len(l.PendingMaintenance()) != 0 {
		t.Error("merge of a clean cache should do nothing")
	}
}
