package stl_test

// Proof that the LS layer's physical write stream is realizable on
// zoned (SMR) media: every write it emits starts where the previous one
// ended, beginning at the frontier, so it always lands at the active
// zone's write pointer.

import (
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
	"smrseek/internal/workload"
)

func TestLSWriteStreamIsZoneCompatible(t *testing.T) {
	p, err := workload.ByName("w89")
	if err != nil {
		t.Fatal(err)
	}
	recs := p.Generate(0.2)

	var maxLBA geom.Sector
	for _, r := range recs {
		if e := r.Extent.End(); e > maxLBA {
			maxLBA = e
		}
	}
	frontier := maxLBA + 1
	ls := stl.NewLS(frontier)

	wp := frontier // the write pointer a zoned device would hold
	writes := 0
	for _, r := range recs {
		if r.Kind != disk.Write { // only writes emit physical appends
			continue
		}
		for _, f := range ls.WriteAppend(nil, r.Extent) {
			if f.Pba != wp {
				t.Fatalf("write %d of %v lands at PBA %d, want the write pointer %d", writes, f.Lba, f.Pba, wp)
			}
			wp += f.Lba.Count
			writes++
		}
	}
	if writes == 0 {
		t.Fatal("workload issued no writes")
	}
}
