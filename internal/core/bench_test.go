package core

import (
	"math/rand"
	"testing"

	"smrseek/internal/geom"
	"smrseek/internal/trace"
)

func benchRun(b *testing.B, cfg Config, recs []trace.Record) {
	b.Helper()
	if cfg.LogStructured && cfg.FrontierStart == 0 {
		cfg.FrontierStart = trace.MaxLBA(recs)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim, err := NewSimulator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(trace.NewSliceReader(recs)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs)*b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkPipeline measures simulation throughput per configuration —
// the incremental cost of each mechanism over the bare pipeline.
func BenchmarkPipeline(b *testing.B) {
	recs := catalogRecords(b, "w91", 0.3)
	d, p, c := DefaultDefragConfig(), DefaultPrefetchConfig(), DefaultCacheConfig()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"NoLS", Config{}},
		{"LS", Config{LogStructured: true}},
		{"LS+defrag", Config{LogStructured: true, Defrag: &d}},
		{"LS+prefetch", Config{LogStructured: true, Prefetch: &p}},
		{"LS+cache", Config{LogStructured: true, Cache: &c}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) { benchRun(b, tc.cfg, recs) })
	}
}

// BenchmarkSelectiveCacheInvalidate times one host write's invalidation
// against an aged cache — overlapping keys of mixed sizes, the 64 MB
// cache a quarter, half and completely full, over an LBA space sized in
// proportion so that a write drops as many entries at each fill. Each
// dropped entry is replaced by a fresh one, so the entry count holds
// steady (and, when full, capacity evictions keep running). Keys per
// bucket stay level across the three fills, so the per-write cost must
// not grow with the entry count, and nothing may allocate.
func BenchmarkSelectiveCacheInvalidate(b *testing.B) {
	capacity := DefaultCacheConfig().CapacityBytes
	for _, fill := range []struct {
		name string
		num  int64
	}{{"quarter", 1}, {"half", 2}, {"full", 4}} {
		b.Run(fill.name, func(b *testing.B) {
			space := fill.num << 20 // sectors of LBA space the keys fall in
			rng := rand.New(rand.NewSource(1))
			randKey := func() geom.Extent { return geom.Ext(rng.Int63n(space), 1+rng.Int63n(32)) }
			s := NewSelectiveCache(CacheConfig{CapacityBytes: capacity})
			for used := int64(0); used < capacity*fill.num/4-32*geom.SectorSize; {
				k := randKey()
				if _, ok := s.c.Peek(keyOf(k)); !ok {
					used += k.Bytes()
				}
				s.Insert(k)
			}
			// Age it: churn until the buckets, their spare list and the
			// LRU's map have reached their steady size.
			step := func() {
				for n := s.Invalidate(geom.Ext(rng.Int63n(space), 1+rng.Int63n(256))); n > 0; n-- {
					s.Insert(randKey())
				}
			}
			for i := 0; i < 200_000; i++ {
				step()
			}
			entries, before := s.c.Len(), s.Invalidations()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.ReportMetric(float64(entries), "entries")
			b.ReportMetric(float64(s.Invalidations()-before)/float64(b.N), "dropped/op")
		})
	}
}
