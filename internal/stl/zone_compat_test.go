package stl_test

// Proof that the LS layer's physical write stream is realizable on
// zoned (SMR) media: every write it emits lands exactly at the active
// zone's write pointer, because the frontier only ever advances.

import (
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
	"smrseek/internal/workload"
	"smrseek/internal/zone"
)

func TestLSWriteStreamIsZoneCompatible(t *testing.T) {
	p, err := workload.ByName("w89")
	if err != nil {
		t.Fatal(err)
	}
	recs := p.Generate(0.2)

	const zoneSectors = 1 << 16
	// Frontier starts at a zone boundary above the device LBA space.
	var maxLBA geom.Sector
	for _, r := range recs {
		if e := r.Extent.End(); e > maxLBA {
			maxLBA = e
		}
	}
	frontier := ((maxLBA + zoneSectors) / zoneSectors) * zoneSectors
	ls := stl.NewLS(frontier)
	// A zoned device covering the log region; the data region below the
	// frontier is conventional (it models pre-existing in-place data).
	dev := zone.NewDevice(frontier+(1<<27), zoneSectors, int(frontier/zoneSectors))

	for _, r := range recs {
		if r.Kind != disk.Write { // only writes emit physical appends
			continue
		}
		for _, f := range ls.WriteAppend(nil, r.Extent) {
			if err := dev.WriteSplit(f.PhysExtent()); err != nil {
				t.Fatalf("LS write stream violates zone constraints: %v", err)
			}
		}
	}
	_, _, violations := dev.Stats()
	if violations != 0 {
		t.Fatalf("violations = %d", violations)
	}
}
