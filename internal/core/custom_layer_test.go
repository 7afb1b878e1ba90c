package core_test

// Integration tests driving the finite-log cleaning layer (gc) and the
// media-cache layer (mcache) through the simulator — verifying that
// maintenance I/O reaches the disk model and that the two designs make
// the opposite trade-off the paper describes in §II: media cache keeps
// read seeks low but pays high write amplification; the full-map
// log-structured layer does the reverse.

import (
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/gc"
	"smrseek/internal/geom"
	"smrseek/internal/mcache"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

func runCustom(t *testing.T, layerCfg core.Config, recs []trace.Record) core.Stats {
	t.Helper()
	sim, err := core.NewSimulator(layerCfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// updateHeavy builds a workload of repeated overwrites plus scans.
func updateHeavy() []trace.Record {
	var recs []trace.Record
	seed := uint64(7)
	for i := 0; i < 4000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		lba := int64(seed % 40000)
		recs = append(recs, trace.Record{Kind: disk.Write, Extent: geom.Ext(lba, 16)})
		if i%10 == 9 {
			recs = append(recs, trace.Record{Kind: disk.Read, Extent: geom.Ext(int64(seed%30000), 256)})
		}
	}
	return recs
}

func TestSimulatorWithGCLayer(t *testing.T) {
	recs := updateHeavy()
	layer, err := gc.New(gc.Config{
		DeviceSectors:  41000,
		LogSectors:     16 * 2048, // < total written volume: forces cleaning
		SegmentSectors: 2048,
		Policy:         gc.Greedy,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := runCustom(t, core.Config{CustomLayer: layer}, recs)
	if layer.ExtraSectors() == 0 {
		t.Fatal("workload did not trigger cleaning; enlarge it")
	}
	if st.MaintSectors == 0 || st.MaintReads == 0 || st.MaintWrites == 0 {
		t.Fatalf("maintenance I/O not surfaced: %+v", st)
	}
	if st.WAF <= 1 {
		t.Errorf("WAF = %v, want > 1 under cleaning", st.WAF)
	}
}

func TestSimulatorWithMediaCacheLayer(t *testing.T) {
	recs := updateHeavy()
	layer, err := mcache.New(mcache.Config{
		DeviceSectors: 48 * 1024,
		ZoneSectors:   4096,
		CacheSectors:  8 * 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := runCustom(t, core.Config{CustomLayer: layer}, recs)
	if layer.ExtraSectors() == 0 {
		t.Fatal("workload did not trigger merges")
	}
	if st.WAF <= 1 {
		t.Errorf("WAF = %v, want > 1 (zone rewrites)", st.WAF)
	}
	if st.MaintSectors == 0 {
		t.Error("merge I/O not surfaced")
	}
}

// TestPaperTradeoff checks §II's contrast on a fragmenting workload:
// the media-cache design ends with less read-seek amplification than the
// full-map log-structured design, but pays far more write amplification.
func TestPaperTradeoff(t *testing.T) {
	p, err := workload.ByName("w91")
	if err != nil {
		t.Fatal(err)
	}
	recs := p.Generate(0.3)
	frontier := trace.MaxLBA(recs)

	base := runCustom(t, core.Config{}, recs)

	ls := runCustom(t, core.Config{LogStructured: true, FrontierStart: frontier}, recs)

	zoneSectors := int64(8192)
	devSectors := ((frontier + zoneSectors) / zoneSectors) * zoneSectors
	mc, err := mcache.New(mcache.Config{
		DeviceSectors: devSectors,
		ZoneSectors:   zoneSectors,
		CacheSectors:  4 * zoneSectors, // small cache: frequent merges
	})
	if err != nil {
		t.Fatal(err)
	}
	mcStats := runCustom(t, core.Config{CustomLayer: mc}, recs)

	lsReadSAF := float64(ls.Disk.ReadSeeks) / float64(base.Disk.ReadSeeks)
	mcReadSAF := float64(mcStats.Disk.ReadSeeks) / float64(base.Disk.ReadSeeks)
	if mcReadSAF >= lsReadSAF {
		t.Errorf("media cache read SAF %.2f should undercut LS %.2f", mcReadSAF, lsReadSAF)
	}
	if mcStats.WAF <= ls.WAF {
		t.Errorf("media cache WAF %.2f should exceed LS WAF %.2f", mcStats.WAF, ls.WAF)
	}
}

func TestCustomLayerConfigValidation(t *testing.T) {
	layer, err := gc.New(gc.Config{DeviceSectors: 0, LogSectors: 8 * 256, SegmentSectors: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := (core.Config{LogStructured: true, CustomLayer: layer}).Validate(); err == nil {
		t.Error("LogStructured + CustomLayer must be rejected")
	}
	cfg := core.Config{CustomLayer: layer}
	if cfg.Name() != "SegLS(greedy)" {
		t.Errorf("Name = %s", cfg.Name())
	}
	d := core.DefaultDefragConfig()
	cfg.Defrag = &d
	if cfg.Name() != "SegLS(greedy)+defrag" {
		t.Errorf("Name = %s", cfg.Name())
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("mechanisms on a custom layer should be allowed: %v", err)
	}
}

// TestMechanismsComposeWithGCLayer runs the cache and defrag on the
// cleaning layer: each must be stable and still reduce read seeks versus
// the bare layer on a re-read-heavy workload.
func TestMechanismsComposeWithGCLayer(t *testing.T) {
	var recs []trace.Record
	recs = append(recs, trace.Record{Kind: disk.Write, Extent: geom.Ext(0, 2000)})
	seed := uint64(3)
	for i := 0; i < 300; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		recs = append(recs, trace.Record{Kind: disk.Write, Extent: geom.Ext(int64(seed%2000), 8)})
	}
	for pass := 0; pass < 4; pass++ {
		recs = append(recs, trace.Record{Kind: disk.Read, Extent: geom.Ext(0, 2000)})
	}
	mk := func() *gc.Layer {
		l, err := gc.New(gc.Config{DeviceSectors: 4096, LogSectors: 32 * 1024, SegmentSectors: 1024})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	bare := runCustom(t, core.Config{CustomLayer: mk()}, recs)
	c := core.DefaultCacheConfig()
	cached := runCustom(t, core.Config{CustomLayer: mk(), Cache: &c}, recs)
	if cached.Disk.ReadSeeks >= bare.Disk.ReadSeeks {
		t.Errorf("cache on gc layer: read seeks %d !< %d", cached.Disk.ReadSeeks, bare.Disk.ReadSeeks)
	}
	if cached.CacheHits == 0 {
		t.Error("no cache hits")
	}
	d := core.DefaultDefragConfig()
	dl := mk()
	defragged := runCustom(t, core.Config{CustomLayer: dl, Defrag: &d}, recs)
	if defragged.DefragWritebacks == 0 {
		t.Fatal("defrag on gc layer: no write-backs")
	}
	if defragged.Disk.ReadSeeks >= bare.Disk.ReadSeeks {
		t.Errorf("defrag on gc layer: read seeks %d !< %d", defragged.Disk.ReadSeeks, bare.Disk.ReadSeeks)
	}
	if frags := dl.ResolveAppend(nil, geom.Ext(0, 2000)); len(frags) != 1 {
		t.Errorf("relocated extent resolves to %d fragments, want 1: %v", len(frags), frags)
	}
}
