package mcache

import (
	"testing"

	"smrseek/internal/geom"
)

func BenchmarkWriteAndMerge(b *testing.B) {
	l, err := New(Config{
		DeviceSectors: 1 << 20,
		ZoneSectors:   1 << 14,
		CacheSectors:  4 << 14,
	})
	if err != nil {
		b.Fatal(err)
	}
	seed := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		l.WriteAppend(nil, geom.Ext(int64(seed%(1<<20-64)), 16))
		l.PendingMaintenance()
	}
	b.ReportMetric(float64(l.ExtraSectors()/(1<<14)), "zone-rewrites")
}

func BenchmarkResolveCached(b *testing.B) {
	l, err := New(Config{
		DeviceSectors: 8 << 21, // 8 GiB of 64 MiB zones, 256 MiB cache
		ZoneSectors:   64 << 11,
		CacheSectors:  256 << 11,
	})
	if err != nil {
		b.Fatal(err)
	}
	seed := uint64(2)
	for i := 0; i < 5000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		l.WriteAppend(nil, geom.Ext(int64(seed%(1<<22)), 16))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		l.ResolveAppend(nil, geom.Ext(int64(seed%(1<<22)), 256))
	}
}
