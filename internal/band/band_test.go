package band

import (
	"strings"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
)

// observerFunc adapts a function to the disk.Observer interface.
type observerFunc func(disk.Access)

func (f observerFunc) ObserveAccess(a disk.Access) { f(a) }

// small returns a device with a tiny, hand-checkable geometry: 100-sector
// bands over a 1000-sector data region, a 200-sector cache in two
// 100-sector units at sector 1000.
func small(t *testing.T, p Policy) *Device {
	t.Helper()
	d, err := New(Config{
		BandSectors:  100,
		CacheSectors: 200,
		UnitSectors:  100,
		DataSectors:  1000,
		Policy:       p,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func write(t *testing.T, d *Device, start geom.Sector, n int64) {
	t.Helper()
	d.Do(disk.Write, geom.Ext(start, n))
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("after write [%d,+%d): %v", start, n, err)
	}
}

func read(t *testing.T, d *Device, start geom.Sector, n int64) {
	t.Helper()
	d.Do(disk.Read, geom.Ext(start, n))
}

func TestParsePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Policy
	}{{"pol-a", PolA}, {"a", PolA}, {"pol-b", PolB}, {"b", PolB}, {"shelter", Shelter}} {
		got, err := ParsePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if back, err := ParsePolicy(tc.want.String()); err != nil || back != tc.want {
			t.Errorf("round-trip %v failed: %v, %v", tc.want, back, err)
		}
	}
	if _, err := ParsePolicy("pol-c"); err == nil {
		t.Error("ParsePolicy accepted pol-c")
	}
}

func TestValidate(t *testing.T) {
	bad := []Config{
		{BandSectors: -1},
		{CacheSectors: -5},
		{CleanLo: 0.9, CleanHi: 0.5},
		{CleanHi: 1.5},
		{ShelterSectors: -1},
		{Policy: Policy(9)},
		{DataSectors: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) accepted a bad config", c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestAppendsPassThrough: first writes and in-band appends never touch
// the cache — they are shingle-friendly by definition.
func TestAppendsPassThrough(t *testing.T) {
	d := small(t, PolA)
	write(t, d, 0, 50)
	write(t, d, 50, 50)  // continues band 0 at its write pointer
	write(t, d, 100, 30) // fresh band 1
	c := d.Cleaning()
	if c.CachedWrites != 0 || c.DirtyBands != 0 {
		t.Fatalf("appends were cached: %+v", c)
	}
	if got := d.Counters().WriteSectors; got != 130 {
		t.Fatalf("WriteSectors = %d, want 130", got)
	}
	if c.HostWriteSectors != 130 {
		t.Fatalf("HostWriteSectors = %d, want 130", c.HostWriteSectors)
	}
}

// TestRewriteRedirects: a write below the band's pointer goes to the
// cache, reads of it resolve there, and overwriting it again displaces
// the old copy.
func TestRewriteRedirects(t *testing.T) {
	d := small(t, PolA)
	write(t, d, 0, 50)
	write(t, d, 0, 10) // rewrite: must be redirected
	c := d.Cleaning()
	if c.CachedWrites != 1 || c.CachedSectors != 10 || c.DirtyBands != 1 {
		t.Fatalf("redirect not recorded: %+v", c)
	}

	// The physical write must have landed inside the cache region.
	var cachePhys bool
	d.AddObserver(observerFunc(func(a disk.Access) {
		if a.Extent.Start >= 1000 {
			cachePhys = true
		}
	}))
	read(t, d, 0, 10)
	if !cachePhys {
		t.Fatal("read of redirected data did not touch the cache region")
	}
	if got := d.Cleaning().CacheReads; got != 1 {
		t.Fatalf("CacheReads = %d, want 1", got)
	}

	// Overwrite: the stale copy's space is released.
	write(t, d, 0, 10)
	c = d.Cleaning()
	if c.CachedWrites != 2 || c.CachedSectors != 20 {
		t.Fatalf("second redirect not recorded: %+v", c)
	}
}

// TestStallCleanReclaims: exhausting the cache forces a synchronous
// clean that RMWs the dirty band, after which space is reclaimed.
func TestStallCleanReclaims(t *testing.T) {
	// Watermarks at the very top so the soft cleaner stays out of the
	// way and the allocation failure is what forces the clean.
	d, err := New(Config{
		BandSectors:  100,
		CacheSectors: 200,
		UnitSectors:  100,
		DataSectors:  1000,
		CleanLo:      0.95,
		CleanHi:      1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	write(t, d, 0, 100)
	write(t, d, 100, 100)
	write(t, d, 200, 100)
	// Three disjoint 90-sector rewrites: two fill both cache units; the
	// third fits nowhere and must stall-clean the dirtiest band.
	write(t, d, 0, 90)
	write(t, d, 100, 90)
	write(t, d, 200, 90)
	c := d.Cleaning()
	if c.Stalls == 0 || c.CleanRuns == 0 || c.BandsCleaned == 0 {
		t.Fatalf("no stall clean recorded: %+v", c)
	}
	if c.CleanReadSectors == 0 || c.CleanWriteSectors == 0 {
		t.Fatalf("clean RMW not accounted: %+v", c)
	}
	if c.StallSectors == 0 {
		t.Fatalf("stall sectors not accounted: %+v", c)
	}
	if wa := c.WriteAmp(); wa <= 1 {
		t.Fatalf("WriteAmp = %v, want > 1 after cleaning", wa)
	}
}

// TestPolBPlacement: each band writes to its own statically assigned
// unit, and filling that unit cleans exactly its bands.
func TestPolBPlacement(t *testing.T) {
	// Watermarks at 1.0: only the full-unit hard trigger may clean.
	d, err := New(Config{
		BandSectors:  100,
		CacheSectors: 200,
		UnitSectors:  100,
		DataSectors:  1000,
		Policy:       PolB,
		CleanLo:      1.0,
		CleanHi:      1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	write(t, d, 0, 50)   // band 0
	write(t, d, 150, 50) // band 1 (starts mid-band: fresh space, passes)

	var phys []geom.Sector
	d.AddObserver(observerFunc(func(a disk.Access) {
		if a.Kind == disk.Write && a.Extent.Start >= 1000 {
			phys = append(phys, a.Extent.Start)
		}
	}))
	write(t, d, 0, 10)   // band 0 rewrite -> unit 0 (band 0 mod 2)
	write(t, d, 150, 10) // band 1 rewrite -> unit 1
	if len(phys) != 2 || phys[0] != 1000 || phys[1] != 1100 {
		t.Fatalf("PolB placement = %v, want [1000 1100]", phys)
	}

	// Fill band 0's unit: the hard trigger cleans band 0 only. The
	// first 90-sector rewrite displaces the 10 and fills the unit
	// exactly; the second overflows it and forces the unit clean.
	write(t, d, 0, 90)
	write(t, d, 0, 90)
	c := d.Cleaning()
	if c.Stalls == 0 || c.BandsCleaned == 0 {
		t.Fatalf("PolB unit clean not recorded: %+v", c)
	}
	// Only band 0 (unit 0's sole band) was cleaned; band 1 kept its
	// cached data, and the pending rewrite re-dirtied band 0.
	if c.BandsCleaned != 1 {
		t.Fatalf("BandsCleaned = %d, want 1 (band 1 untouched by unit 0 clean)", c.BandsCleaned)
	}
	if c.DirtyBands != 2 {
		t.Fatalf("DirtyBands = %d, want 2", c.DirtyBands)
	}
}

// TestShelterSeekFree: a small rewrite lands exactly where the head is
// — the tail of the last big I/O — costing no write seek.
func TestShelterSeekFree(t *testing.T) {
	d, err := New(Config{
		BandSectors:    100,
		CacheSectors:   200,
		UnitSectors:    100,
		DataSectors:    1000,
		Policy:         Shelter,
		ShelterSectors: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	write(t, d, 0, 50) // big: shelter point = 50, head at 50
	seeksBefore := d.Counters().WriteSeeks
	write(t, d, 0, 10) // small rewrite: sheltered at 50
	if got := d.Counters().WriteSeeks; got != seeksBefore {
		t.Fatalf("sheltered write seeked (%d -> %d)", seeksBefore, got)
	}
	c := d.Cleaning()
	if c.CachedWrites != 1 || c.DirtyBands != 1 {
		t.Fatalf("shelter not recorded as redirect: %+v", c)
	}

	// A big rewrite is not sheltered: it goes to the cache region.
	var cachePhys bool
	d.AddObserver(observerFunc(func(a disk.Access) {
		if a.Kind == disk.Write && a.Extent.Start >= 1000 {
			cachePhys = true
		}
	}))
	write(t, d, 0, 40)
	if !cachePhys {
		t.Fatal("big rewrite was not sent to the cache region")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestBandCrossings: one access sweeping several bands charges the
// boundary crossings.
func TestBandCrossings(t *testing.T) {
	d := small(t, PolA)
	write(t, d, 50, 200) // bands 0..2: two boundaries
	read(t, d, 0, 100)   // within band 0 and its boundary at 100? [0,100) stays inside
	c := d.Cleaning()
	if c.BandCrossings != 2 {
		t.Fatalf("BandCrossings = %d, want 2", c.BandCrossings)
	}
}

// TestCacheDisabledIsPassThrough: with no cache every access passes
// through verbatim — one physical access per host access.
func TestCacheDisabledIsPassThrough(t *testing.T) {
	d, err := New(Config{BandSectors: 100, DataSectors: 1000})
	if err != nil {
		t.Fatal(err)
	}
	write(t, d, 0, 50)
	write(t, d, 0, 50) // rewrite: still in place without a cache
	read(t, d, 0, 50)
	c := d.Counters()
	if c.WriteOps != 2 || c.ReadOps != 1 || c.WriteSectors != 100 {
		t.Fatalf("pass-through counters off: %+v", c)
	}
	if cl := d.Cleaning(); cl.CachedWrites != 0 || cl.HostWriteSectors != 100 {
		t.Fatalf("cleaning counters off: %+v", cl)
	}
}

// TestSoftCleanAboveLowWatermark: crossing the low watermark cleans one
// band per op without charging a stall.
func TestSoftCleanAboveLowWatermark(t *testing.T) {
	d, err := New(Config{
		BandSectors:  100,
		CacheSectors: 200,
		UnitSectors:  200,
		DataSectors:  1000,
		CleanLo:      0.2, // low watermark at 40 live sectors
		CleanHi:      0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	write(t, d, 0, 90)
	write(t, d, 0, 50) // 50 live > 40: soft clean fires after the op
	c := d.Cleaning()
	if c.CleanRuns != 1 || c.BandsCleaned != 1 {
		t.Fatalf("soft clean did not fire: %+v", c)
	}
	if c.Stalls != 0 {
		t.Fatalf("soft clean charged a stall: %+v", c)
	}
}

func TestModelName(t *testing.T) {
	d := small(t, PolA)
	if d.ModelName() != "band" {
		t.Fatalf("ModelName = %q", d.ModelName())
	}
	if !strings.Contains(PolB.String(), "pol-b") {
		t.Fatalf("Policy.String = %q", PolB.String())
	}
}
