package band

import (
	"flag"
	"math/rand"
	"testing"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/metrics"
	"smrseek/internal/trace"
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
// infinite model side by side, comparing each Access and the final
// counters exactly.
func TestPropertyCacheDisabledMatchesInfinite(t *testing.T) {
	rng := rand.New(rand.NewSource(seedFor(t)))
	for trial := 0; trial < 25; trial++ {
		bandSize := 16 + rng.Int63n(500)
		bd, err := New(Config{BandSectors: bandSize, DataSectors: 1 << 30})
		if err != nil {
			t.Fatal(err)
		}
		inf := disk.New()
		for op := 0; op < 2000; op++ {
			kind := disk.Read
			if rng.Intn(2) == 0 {
				kind = disk.Write
			}
			ext := geom.Ext(rng.Int63n(1<<16), 1+rng.Int63n(4*bandSize))
			ab := bd.Do(kind, ext)
			ai := inf.Do(kind, ext)
			if ab != ai {
				t.Fatalf("trial %d op %d %s %v: banded access %+v != infinite %+v",
					trial, op, kind, ext, ab, ai)
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
