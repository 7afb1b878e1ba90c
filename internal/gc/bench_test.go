package gc

import (
	"testing"

	"smrseek/internal/geom"
)

func benchLayer(b *testing.B, policy Policy) {
	b.Helper()
	l, err := New(Config{
		DeviceSectors:  1 << 20,
		LogSectors:     256 * 2048,
		SegmentSectors: 2048,
		Policy:         policy,
	})
	if err != nil {
		b.Fatal(err)
	}
	seed := uint64(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		l.WriteAppend(nil, geom.Ext(int64(seed%(400*1024)), 16))
		l.PendingMaintenance()
	}
	b.ReportMetric(float64(l.ExtraSectors())/float64(b.N), "relocated-sectors/op")
}

func BenchmarkWriteGreedy(b *testing.B)      { benchLayer(b, Greedy) }
func BenchmarkWriteCostBenefit(b *testing.B) { benchLayer(b, CostBenefit) }

func BenchmarkResolve(b *testing.B) {
	l, err := New(Config{DeviceSectors: 1 << 20, LogSectors: 256 * 2048, SegmentSectors: 2048})
	if err != nil {
		b.Fatal(err)
	}
	seed := uint64(2)
	for i := 0; i < 20000; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		l.WriteAppend(nil, geom.Ext(int64(seed%(400*1024)), 16))
		l.PendingMaintenance()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		l.ResolveAppend(nil, geom.Ext(int64(seed%(400*1024)), 256))
	}
}
