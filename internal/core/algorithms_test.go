package core

// Correspondence tests tying the simulator's behaviour to the paper's
// pseudo-code, line by line:
//
//	Algorithm 1 (opportunistic defragmentation): on read → DoRead; if
//	  FragmentedRead → WriteAtLogHead(extent).
//	Algorithm 2 (look-ahead-behind prefetching): per LBA piece of a
//	  fragmented read → PreFetch(region); DoRead(pba); PostFetch(region).
//	Algorithm 3 (selective caching): per fragment of a fragmented read →
//	  if CheckCache → ReadCache else ReadDisk + WriteCache.

import (
	"testing"

	"smrseek/internal/geom"
	"smrseek/internal/trace"
)

// fragmentize writes a base extent then punches it with updates so a
// read of base resolves to several fragments.
func fragmentize(sim *Simulator, base geom.Extent, cuts ...geom.Sector) {
	sim.Step(wr(base.Start, base.Count))
	for _, c := range cuts {
		sim.Step(wr(c, 1))
	}
}

func TestAlgorithm1WriteAtLogHeadSemantics(t *testing.T) {
	d := DefaultDefragConfig()
	sim := mustSim(t, Config{LogStructured: true, FrontierStart: 10000, Defrag: &d})
	fragmentize(sim, geom.Ext(0, 100), 10, 50)
	frontierBefore := sim.LS().Frontier()
	sim.Step(rd(0, 100)) // FragmentedRead == True → WriteAtLogHead(IOextent)
	// Line 6 of Algorithm 1: the whole *read extent* is rewritten at the
	// log head — the map must now resolve it as one fragment at the old
	// frontier.
	frs := sim.LS().ResolveAppend(nil, geom.Ext(0, 100))
	if len(frs) != 1 {
		t.Fatalf("after write-back Resolve = %v", frs)
	}
	if frs[0].Pba != frontierBefore {
		t.Errorf("write-back landed at %d, want log head %d", frs[0].Pba, frontierBefore)
	}
	if sim.LS().Frontier() != frontierBefore+100 {
		t.Errorf("frontier advanced to %d, want %d", sim.LS().Frontier(), frontierBefore+100)
	}
	// An UNfragmented read must not trigger a write-back (line 5 guard).
	before := sim.Stats().DefragWritebacks
	sim.Step(rd(0, 100))
	if sim.Stats().DefragWritebacks != before {
		t.Error("unfragmented read triggered a write-back")
	}
}

func TestAlgorithm2PrefetchRegionSemantics(t *testing.T) {
	// Build a layout where two fragments are physically adjacent in the
	// log but a third is far away: the window must cover only the near
	// one.
	p := PrefetchConfig{LookBehindSectors: 4, LookAheadSectors: 4, BufferBytes: 1 << 20}
	sim := mustSim(t, Config{LogStructured: true, FrontierStart: 10000, Prefetch: &p})
	// Log layout: [A][B] adjacent, then 5000 sectors of padding, then [C].
	sim.Step(wr(0, 4))       // A at 10000
	sim.Step(wr(8, 4))       // B at 10004 (within ±4 of A's end)
	sim.Step(wr(5000, 5000)) // padding advances the frontier
	sim.Step(wr(16, 4))      // C at 20008, far from A and B
	// Read LBA 0..20: fragments A(10000), identity(4..8), B(10004),
	// identity(12..16), C(20008), identity(20)... The read of A fills
	// [10000-4, 10000+4+4) covering B → B is a buffer hit; C is not.
	sim.Step(rd(0, 24))
	st := sim.Stats()
	if st.PrefetchHits == 0 {
		t.Fatal("adjacent fragment not served from the window")
	}
	if st.PrefetchHits > 1 {
		t.Fatalf("PrefetchHits = %d; the far fragment must not hit", st.PrefetchHits)
	}
}

func TestAlgorithm3CheckCacheThenDisk(t *testing.T) {
	c := CacheConfig{CapacityBytes: 1 << 20}
	sim := mustSim(t, Config{LogStructured: true, FrontierStart: 10000, Cache: &c})
	fragmentize(sim, geom.Ext(0, 64), 7, 31)
	// First fragmented read: every fragment is a CheckCache miss →
	// ReadDisk + WriteCache for each.
	sim.Step(rd(0, 64))
	st := sim.Stats()
	if st.CacheHits != 0 {
		t.Fatalf("first read hits = %d", st.CacheHits)
	}
	misses := st.CacheMisses
	if misses == 0 {
		t.Fatal("no cache misses recorded on first fragmented read")
	}
	diskSectors := st.Disk.ReadSectors
	// Second identical read: every fragment is a hit; no disk I/O at all.
	sim.Step(rd(0, 64))
	st = sim.Stats()
	if st.CacheHits != misses {
		t.Errorf("second read hits = %d, want %d (one per fragment)", st.CacheHits, misses)
	}
	if st.Disk.ReadSectors != diskSectors {
		t.Error("cached fragments still touched the disk")
	}
}

// TestEndToEndDeterminism: two full instrumented runs over the same
// workload must agree on every statistic.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() Stats {
		recs := []trace.Record{}
		seed := uint64(123)
		for i := 0; i < 3000; i++ {
			seed = seed*6364136223846793005 + 1442695040888963407
			ext := geom.Ext(int64(seed%50000), int64(seed%64+1))
			k := rd(ext.Start, ext.Count)
			if seed%4 == 0 {
				k = wr(ext.Start, ext.Count)
			}
			recs = append(recs, k)
		}
		d, p, c := DefaultDefragConfig(), DefaultPrefetchConfig(), DefaultCacheConfig()
		st := run_(t, Config{LogStructured: true, FrontierStart: 60000, Defrag: &d, Prefetch: &p, Cache: &c}, recs)
		return st
	}
	a, b := run(), run()
	a.Config, b.Config = Config{}, Config{} // pointers differ; compare the rest
	if a != b {
		t.Fatalf("runs differ:\n%+v\n%+v", a, b)
	}
}

func run_(t *testing.T, cfg Config, recs []trace.Record) Stats {
	t.Helper()
	sim := mustSim(t, cfg)
	st, err := sim.Run(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	return st
}
