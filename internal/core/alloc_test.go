package core

import (
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
)

// TestStepZeroAllocsLS pins the uninstrumented hot path: once an LS
// simulator with defrag, prefetch, and selective caching has reached
// steady state, a full Step — read resolution, fragment accounting,
// mechanism bookkeeping, relocation write-back, and the disk model —
// must not allocate as long as no probes or observers are attached.
// This is the simulator-side companion to the extmap visitor tests in
// internal/extmap/alloc_test.go.
func TestStepZeroAllocsLS(t *testing.T) {
	dc := DefaultDefragConfig()
	pc := DefaultPrefetchConfig()
	cc := DefaultCacheConfig()
	sim, err := NewSimulator(Config{
		LogStructured: true,
		FrontierStart: 1 << 20,
		Defrag:        &dc,
		Prefetch:      &pc,
		Cache:         &cc,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Interleaved writes land at different log positions, so the spanning
	// reads that follow are fragmented — exercising the cache, the
	// prefetcher, and defrag write-back on every cycle. The same records
	// replay each cycle, so the map, cache, and buffers reach a fixed
	// working size.
	var recs []trace.Record
	for i := int64(0); i < 8; i++ {
		recs = append(recs,
			trace.Record{Kind: disk.Write, Extent: geom.Ext(geom.Sector(i*512), 64)},
			trace.Record{Kind: disk.Write, Extent: geom.Ext(geom.Sector(i*512+256), 64)},
		)
	}
	for i := int64(0); i < 8; i++ {
		recs = append(recs, trace.Record{Kind: disk.Read, Extent: geom.Ext(geom.Sector(i*512), 448)})
	}
	cycle := func() {
		for _, r := range recs {
			sim.Step(r)
		}
	}

	// Warm up: grow the extent map's leaves, the LRU's entry pool,
	// the scratch buffers, and the prefetch ring to their steady sizes.
	for i := 0; i < 8; i++ {
		cycle()
	}

	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("steady-state LS Step allocated %.2f times per cycle with probes disabled, want 0", allocs)
	}

	// Guard against the workload silently degenerating: if nothing was
	// fragmented the zero-alloc assertion above proved nothing.
	st := sim.Stats()
	if st.FragmentedReads == 0 {
		t.Fatalf("workload produced no fragmented reads; stats %+v", st)
	}
	if st.DefragWritebacks == 0 {
		t.Fatalf("workload never triggered defrag write-back; stats %+v", st)
	}
	if st.CacheMisses == 0 {
		t.Fatalf("workload never consulted the selective cache; stats %+v", st)
	}
}
