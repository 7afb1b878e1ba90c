package smrseek_test

import (
	"testing"

	"smrseek"
)

func TestGCLayerThroughFacade(t *testing.T) {
	recs := smrseek.MustWorkload("usr_0").Generate(0.2)
	footprint := smrseek.WriteFootprint(recs)
	if footprint <= 0 {
		t.Fatal("footprint must be positive")
	}
	const seg = 2048
	layer, err := smrseek.NewGCLayer(smrseek.GCConfig{
		DeviceSectors:  smrseek.MaxLBA(recs),
		LogSectors:     ((footprint*11/10)/seg + 4) * seg,
		SegmentSectors: seg,
		Policy:         smrseek.Greedy,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := smrseek.Run(smrseek.Config{CustomLayer: layer}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads == 0 || st.WAF < 1 {
		t.Fatalf("stats = %+v", st)
	}
	if layer.Name() != "SegLS(greedy)" {
		t.Error("layer name")
	}
	if _, err := smrseek.NewGCLayer(smrseek.GCConfig{}); err == nil {
		t.Error("invalid gc config must error")
	}
}

func TestMediaCacheLayerThroughFacade(t *testing.T) {
	recs := smrseek.MustWorkload("usr_0").Generate(0.2)
	const zone = 8192
	maxLBA := smrseek.MaxLBA(recs)
	layer, err := smrseek.NewMediaCacheLayer(smrseek.MediaCacheConfig{
		DeviceSectors: ((maxLBA + zone) / zone) * zone,
		ZoneSectors:   zone,
		CacheSectors:  2 * zone, // small cache so the write volume forces merges
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := smrseek.Run(smrseek.Config{CustomLayer: layer}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if layer.ExtraSectors() == 0 {
		t.Error("expected merges on usr_0's write volume")
	}
	if st.WAF <= 1 {
		t.Errorf("WAF = %v, want > 1", st.WAF)
	}
	if _, err := smrseek.NewMediaCacheLayer(smrseek.MediaCacheConfig{}); err == nil {
		t.Error("invalid mcache config must error")
	}
}

func TestWriteFootprintCountsDistinctSectors(t *testing.T) {
	recs := []smrseek.Record{
		{Kind: smrseek.Write, Extent: smrseek.Extent{Start: 0, Count: 10}},
		{Kind: smrseek.Write, Extent: smrseek.Extent{Start: 5, Count: 10}},  // overlaps 5
		{Kind: smrseek.Read, Extent: smrseek.Extent{Start: 100, Count: 10}}, // reads don't count
	}
	if got := smrseek.WriteFootprint(recs); got != 15 {
		t.Errorf("footprint = %d, want 15", got)
	}
	if got := smrseek.MaxLBA(recs); got != 110 {
		t.Errorf("MaxLBA = %d, want 110", got)
	}
}
