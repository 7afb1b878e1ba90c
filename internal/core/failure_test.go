package core

import (
	"context"
	"errors"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
)

// failingReader yields a few records then fails, modelling a truncated
// or corrupt trace file.
type failingReader struct {
	left int
	err  error
}

func (f *failingReader) Next() (trace.Record, bool) {
	if f.left <= 0 {
		return trace.Record{}, false
	}
	f.left--
	return trace.Record{Kind: disk.Read, Extent: geom.Ext(int64(f.left)*100, 8)}, true
}

func (f *failingReader) Err() error { return f.err }

func TestRunPropagatesReaderError(t *testing.T) {
	sentinel := errors.New("trace corrupted at line 42")
	sim, err := NewSimulator(Config{LogStructured: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = sim.Run(&failingReader{left: 3, err: sentinel})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Run err = %v, want the reader's error", err)
	}
	// The records consumed before the failure were still processed.
	if got := sim.Stats().Reads; got != 3 {
		t.Errorf("processed %d records before failure, want 3", got)
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := mustSim(t, Config{LogStructured: true})
	_, err := s.RunContext(ctx, trace.NewSliceReader(crashWorkload(1, 1000)))
	if err != context.Canceled {
		t.Errorf("RunContext on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := CompareContext(ctx, crashWorkload(1, 1000)); err != context.Canceled {
		t.Errorf("CompareContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestCompareAcceptsCustomLayers(t *testing.T) {
	// Compare leaves variants with a CustomLayer as-is (no forced
	// LogStructured), so alternative layers can be compared against the
	// same NoLS baseline.
	recs := []trace.Record{
		{Kind: disk.Write, Extent: geom.Ext(0, 8)},
		{Kind: disk.Read, Extent: geom.Ext(0, 8)},
	}
	cmp, err := CompareContext(context.Background(), recs, Config{CustomLayer: stl.NewLS(1000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Variants) != 1 || cmp.Variants[0].Name != "LS" {
		t.Fatalf("variants = %+v", cmp.Variants)
	}
	// Invalid combinations still surface errors.
	if _, err := CompareContext(context.Background(), recs, Config{FrontierStart: -1, CustomLayer: stl.NewLS(0)}); err == nil {
		t.Fatal("invalid config must surface an error")
	}
}

// TestConservationProperty: for any LS run without mechanisms, the disk
// must read exactly the sectors the host requested and write exactly the
// sectors the host wrote.
func TestConservationProperty(t *testing.T) {
	recs := []trace.Record{}
	seed := uint64(5)
	var wantRead, wantWritten int64
	for i := 0; i < 2000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		n := int64(seed%128 + 1)
		lba := int64(seed % 100000)
		kind := disk.Read
		if seed%3 == 0 {
			kind = disk.Write
			wantWritten += n
		} else {
			wantRead += n
		}
		recs = append(recs, trace.Record{Kind: kind, Extent: geom.Ext(lba, n)})
	}
	for _, cfg := range []Config{{}, {LogStructured: true, FrontierStart: 200000}} {
		sim, err := NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(trace.NewSliceReader(recs))
		if err != nil {
			t.Fatal(err)
		}
		if st.Disk.ReadSectors != wantRead {
			t.Errorf("%s: read %d sectors, want %d", cfg.Name(), st.Disk.ReadSectors, wantRead)
		}
		if st.Disk.WriteSectors != wantWritten {
			t.Errorf("%s: wrote %d sectors, want %d", cfg.Name(), st.Disk.WriteSectors, wantWritten)
		}
	}
}

// TestCacheNeverServesStaleData drives interleaved writes and reads and
// asserts, via the read observer, that any fragment the cache could
// serve was inserted after the last write overlapping it.
func TestCacheNeverServesStaleData(t *testing.T) {
	c := DefaultCacheConfig()
	sim, err := NewSimulator(Config{LogStructured: true, FrontierStart: 1 << 20, Cache: &c})
	if err != nil {
		t.Fatal(err)
	}
	// Version counter per LBA region: a write bumps it. If the cache
	// served a fragment whose insertion version is older than the
	// current version, it would be stale. We detect staleness indirectly:
	// after every write, an immediate fragmented read must touch the
	// disk for the overlapping fragment (cache miss), which shows up as
	// read seeks increasing.
	seed := uint64(77)
	for i := 0; i < 500; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		lba := int64(seed % 5000)
		sim.Step(trace.Record{Kind: disk.Write, Extent: geom.Ext(lba, 4)})
		before := sim.Stats().Disk.ReadSectors
		sim.Step(trace.Record{Kind: disk.Read, Extent: geom.Ext(lba, 4)})
		after := sim.Stats().Disk.ReadSectors
		if after == before {
			t.Fatalf("step %d: read of just-written LBA %d served without touching disk", i, lba)
		}
	}
}
