package band

import (
	"flag"
	"math/rand"
	"slices"
	"testing"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/metrics"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

// Differential property: with the persistent cache disabled, the banded
// device is the infinite model wearing band bookkeeping — every access
// must pass through verbatim, so the §II seek accounting is required to
// be bit-identical, access by access and counter by counter. The test
// is seeded; a failing seed is logged and can be replayed with
// -band.seed, like -extmap.seed.

var propSeed = flag.Int64("band.seed", 0,
	"property test seed (0 = derive from time; the chosen seed is logged)")

func seedFor(t *testing.T) int64 {
	seed := *propSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	t.Logf("band property seed %d (rerun: go test ./internal/band -run %s -band.seed %d)",
		seed, t.Name(), seed)
	return seed
}

// TestPropertyCacheDisabledMatchesInfinite drives random op streams —
// rewrites included — through a cache-less banded device and the
// infinite model side by side, comparing the access streams their
// observers see, op by op, and the final counters exactly.
func TestPropertyCacheDisabledMatchesInfinite(t *testing.T) {
	rng := rand.New(rand.NewSource(seedFor(t)))
	for trial := 0; trial < 25; trial++ {
		bandSize := 16 + rng.Int63n(500)
		bd, err := New(Config{BandSectors: bandSize, DataSectors: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		inf := disk.New()
		var seenB, seenI []disk.Access
		bd.AddObserver(observerFunc(func(a disk.Access) { seenB = append(seenB, a) }))
		inf.AddObserver(observerFunc(func(a disk.Access) { seenI = append(seenI, a) }))
		for op := 0; op < 2000; op++ {
			kind := disk.Read
			if rng.Intn(2) == 0 {
				kind = disk.Write
			}
			ext := geom.Ext(rng.Int63n(1<<16), 1+rng.Int63n(4*bandSize))
			n := len(seenI)
			bd.Do(kind, ext)
			inf.Do(kind, ext)
			if !slices.Equal(seenB[n:], seenI[n:]) {
				t.Fatalf("trial %d op %d %s %v: banded accesses %+v != infinite %+v",
					trial, op, kind, ext, seenB[n:], seenI[n:])
			}
		}
		if bc, ic := bd.Counters(), inf.Counters(); bc != ic {
			t.Fatalf("trial %d (band size %d): counters diverge\nbanded:   %+v\ninfinite: %+v",
				trial, bandSize, bc, ic)
		}
		if err := bd.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// synthTrace builds a seeded workload over a bounded footprint. With
// rewrites=false every written LBA is written exactly once (the
// rewrite-free workloads of the acceptance criterion); reads may still
// revisit anything.
func synthTrace(rng *rand.Rand, n int, rewrites bool) []trace.Record {
	const footprint = 1 << 16
	recs := make([]trace.Record, 0, n)
	next := geom.Sector(0) // first-write frontier for the rewrite-free mode
	for i := 0; i < n; i++ {
		if rng.Intn(3) == 0 { // write
			count := 1 + rng.Int63n(256)
			var ext geom.Extent
			if rewrites {
				ext = geom.Ext(rng.Int63n(footprint), count)
			} else {
				ext = geom.Ext(next, count)
				next = ext.End()
			}
			recs = append(recs, trace.Record{Kind: disk.Write, Extent: ext})
		} else {
			hi := next
			if rewrites || hi == 0 {
				hi = footprint
			}
			start := rng.Int63n(int64(hi))
			recs = append(recs, trace.Record{Kind: disk.Read, Extent: geom.Ext(start, 1+rng.Int63n(128))})
		}
	}
	return recs
}

// normalize clears the fields that legitimately differ between the two
// geometries: the configs differ by the Device field, and the banded
// device reports its (pass-through) cleaning gauges.
func normalize(st core.Stats) core.Stats {
	st.Config = core.Config{}
	st.Cleaning = metrics.Cleaning{}
	return st
}

// TestPropertyCoreStatsMatchInfinite runs the same seeded trace through
// the full simulator — NoLS, LS, and LS with every mechanism — on both
// geometries and requires bit-identical Stats, for rewrite-free and
// rewrite-heavy workloads alike.
func TestPropertyCoreStatsMatchInfinite(t *testing.T) {
	rng := rand.New(rand.NewSource(seedFor(t)))
	layers := []struct {
		name string
		cfg  core.Config
	}{
		{"NoLS", core.Config{}},
		{"LS", core.Config{LogStructured: true, FrontierStart: 1 << 20}},
		{"LS+mechanisms", core.Config{
			LogStructured: true,
			FrontierStart: 1 << 20,
			Defrag:        &core.DefragConfig{MinFragments: 2, MinAccesses: 1},
			Prefetch:      &core.PrefetchConfig{LookBehindSectors: 64, LookAheadSectors: 64, BufferBytes: 1 << 20},
			Cache:         &core.CacheConfig{CapacityBytes: 1 << 20},
		}},
	}
	for _, rewrites := range []bool{false, true} {
		recs := synthTrace(rng, 4000, rewrites)
		for _, lc := range layers {
			bd, err := New(Config{BandSectors: 997, DataSectors: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			bandCfg := lc.cfg
			bandCfg.Device = bd
			simB, err := core.NewSimulator(bandCfg)
			if err != nil {
				t.Fatal(err)
			}
			simI, err := core.NewSimulator(lc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			stB, err := simB.Run(trace.NewSliceReader(recs))
			if err != nil {
				t.Fatal(err)
			}
			stI, err := simI.Run(trace.NewSliceReader(recs))
			if err != nil {
				t.Fatal(err)
			}
			if normalize(stB) != normalize(stI) {
				t.Errorf("%s (rewrites=%v): stats diverge\nbanded:   %+v\ninfinite: %+v",
					lc.name, rewrites, normalize(stB), normalize(stI))
			}
			if err := bd.CheckInvariants(); err != nil {
				t.Errorf("%s (rewrites=%v): %v", lc.name, rewrites, err)
			}
		}
	}
}

// TestLSVariantsMatchInfiniteOnCachedBands pins that the banded
// geometry moves the numbers only under NoLS: the four Figure 11 LS
// variants on a cache-enabled PolA device see exactly the infinite
// disk's seeks, because the log only appends at its frontier, at or
// above every band's write pointer, so nothing is redirected and the
// cache and cleaner never run. NoLS on the same device is the control:
// its rewrites are cached, so the device is not idle on these traces.
func TestLSVariantsMatchInfiniteOnCachedBands(t *testing.T) {
	run := func(cfg core.Config, recs []trace.Record) core.Stats {
		t.Helper()
		sim, err := core.NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(trace.NewSliceReader(recs))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	banded := func() *Device {
		t.Helper()
		d, err := New(Config{BandSectors: 2048, CacheSectors: 200000, Policy: PolA})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, name := range []string{"hm_1", "w20", "usr_0", "w91"} {
		p, err := workload.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		recs := p.Generate(0.05)
		control := banded()
		run(core.Config{Device: control}, recs)
		if control.Cleaning().CachedWrites == 0 {
			t.Errorf("%s: NoLS cached no rewrite on the banded device", name)
		}
		for _, cfg := range core.PaperVariants() {
			cfg.FrontierStart = core.FrontierFor(recs)
			inf := run(cfg, recs)
			d := banded()
			cfg.Device = d
			if st := run(cfg, recs); st.Disk != inf.Disk {
				t.Errorf("%s %s: banded %+v, infinite %+v", name, cfg.Name(), st.Disk, inf.Disk)
			}
			if c := d.Cleaning(); c.CachedWrites != 0 || c.BandsCleaned != 0 {
				t.Errorf("%s %s: the log reached the cache or the cleaner: %+v", name, cfg.Name(), c)
			}
		}
	}
}

// TestPropertyInvariantsUnderLoad hammers a cache-enabled device with a
// rewrite-heavy stream under every policy, checking the allocator
// invariants as it goes and once more at the end.
func TestPropertyInvariantsUnderLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(seedFor(t)))
	for _, pol := range []Policy{PolA, PolB, Shelter} {
		d, err := New(Config{
			BandSectors:  256,
			CacheSectors: 2048,
			UnitSectors:  512,
			DataSectors:  1 << 20,
			Policy:       pol,
		})
		if err != nil {
			t.Fatal(err)
		}
		for op := 0; op < 5000; op++ {
			kind := disk.Read
			if rng.Intn(2) == 0 {
				kind = disk.Write
			}
			ext := geom.Ext(rng.Int63n(1<<13), 1+rng.Int63n(512))
			d.Do(kind, ext)
			if op%251 == 0 {
				if err := d.CheckInvariants(); err != nil {
					t.Fatalf("%v op %d: %v", pol, op, err)
				}
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("%v final: %v", pol, err)
		}
		c := d.Cleaning()
		if c.CachedWrites == 0 || c.BandsCleaned == 0 {
			t.Fatalf("%v: workload did not exercise the cache/cleaner: %+v", pol, c)
		}
	}
}
