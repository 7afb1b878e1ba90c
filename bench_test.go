// Benchmarks regenerating every table and figure of the paper, plus
// ablation benches for the design knobs DESIGN.md calls out. Each
// benchmark iteration performs the full experiment at a reduced workload
// scale so `go test -bench=.` completes in minutes; pass
// -benchscale to change it.
package smrseek_test

import (
	"context"
	"flag"
	"io"
	"testing"

	"smrseek"
)

var benchScale = flag.Float64("benchscale", 0.1, "workload scale used by experiment benchmarks")

func benchExperiment(b *testing.B, name string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := smrseek.RunExperimentContext(context.Background(), io.Discard, name, *benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Characterize regenerates Table I (workload characteristics).
func BenchmarkTable1Characterize(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig2SeekCounts regenerates Figure 2 (NoLS vs LS seek counts).
func BenchmarkFig2SeekCounts(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3LongSeekSeries regenerates Figure 3 (long-seek overhead over time).
func BenchmarkFig3LongSeekSeries(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4DistanceCDF regenerates Figure 4 (access-distance CDFs).
func BenchmarkFig4DistanceCDF(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5FragmentCDF regenerates Figure 5 (fragmented-read skew).
func BenchmarkFig5FragmentCDF(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkFig7Misorder regenerates Figure 7 (non-sequential write patterns).
func BenchmarkFig7Misorder(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig8Misordered regenerates Figure 8 (mis-ordered write fractions).
func BenchmarkFig8Misordered(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig10Popularity regenerates Figure 10 (fragment popularity).
func BenchmarkFig10Popularity(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkFig11SAF regenerates Figure 11 (the headline SAF comparison).
func BenchmarkFig11SAF(b *testing.B) { benchExperiment(b, "fig11") }

// ---------------------------------------------------------------------
// Ablation benches: the knobs the paper fixes, swept. Reported metric is
// total SAF ×1000 (as saf_millis) so shapes are visible in bench output.

func w91Records(scale float64) *smrseek.Preloaded {
	return smrseek.PreloadRecords(smrseek.MustWorkload("w91").Generate(scale))
}

func safOf(b *testing.B, cfg smrseek.Config, pl *smrseek.Preloaded, baseSeeks int64) float64 {
	b.Helper()
	st, err := smrseek.RunPreloadedContext(context.Background(), cfg, pl)
	if err != nil {
		b.Fatal(err)
	}
	return float64(st.Disk.TotalSeeks()) / float64(baseSeeks)
}

func baseline(b *testing.B, pl *smrseek.Preloaded) int64 {
	b.Helper()
	st, err := smrseek.RunPreloadedContext(context.Background(), smrseek.Config{}, pl)
	if err != nil {
		b.Fatal(err)
	}
	return st.Disk.TotalSeeks()
}

// BenchmarkAblationCacheSize sweeps the selective cache capacity around
// the paper's fixed 64 MB.
func BenchmarkAblationCacheSize(b *testing.B) {
	recs := w91Records(*benchScale)
	base := baseline(b, recs)
	for _, mb := range []int64{4, 16, 64, 256} {
		mb := mb
		b.Run(byteLabel(mb), func(b *testing.B) {
			b.ReportAllocs()
			var saf float64
			for i := 0; i < b.N; i++ {
				cc := smrseek.CacheConfig{CapacityBytes: mb << 20}
				saf = safOf(b, smrseek.Config{LogStructured: true, Cache: &cc}, recs, base)
			}
			b.ReportMetric(saf*1000, "saf_millis")
		})
	}
}

// BenchmarkAblationPrefetchWindow sweeps the look-ahead-behind window.
func BenchmarkAblationPrefetchWindow(b *testing.B) {
	recs := w91Records(*benchScale)
	base := baseline(b, recs)
	for _, kb := range []int64{16, 64, 256, 1024} {
		kb := kb
		b.Run(itoa(kb)+"KiB", func(b *testing.B) {
			b.ReportAllocs()
			var saf float64
			for i := 0; i < b.N; i++ {
				pc := smrseek.PrefetchConfig{
					LookBehindSectors: kb * 2,
					LookAheadSectors:  kb * 2,
					BufferBytes:       32 << 20,
				}
				saf = safOf(b, smrseek.Config{LogStructured: true, Prefetch: &pc}, recs, base)
			}
			b.ReportMetric(saf*1000, "saf_millis")
			b.ReportMetric(float64(kb), "window_kb")
		})
	}
}

// BenchmarkAblationDefragGating sweeps the §IV-A gates (N fragments, k
// accesses) the paper mentions but does not evaluate.
func BenchmarkAblationDefragGating(b *testing.B) {
	recs := w91Records(*benchScale)
	base := baseline(b, recs)
	for _, g := range []smrseek.DefragConfig{
		{MinFragments: 2, MinAccesses: 1},
		{MinFragments: 4, MinAccesses: 1},
		{MinFragments: 2, MinAccesses: 3},
	} {
		g := g
		b.Run(gateLabel(g), func(b *testing.B) {
			b.ReportAllocs()
			var saf float64
			for i := 0; i < b.N; i++ {
				gg := g
				saf = safOf(b, smrseek.Config{LogStructured: true, Defrag: &gg}, recs, base)
			}
			b.ReportMetric(saf*1000, "saf_millis")
		})
	}
}

// BenchmarkAblationCombined runs all three mechanisms together — beyond
// the paper, which evaluates each alone.
func BenchmarkAblationCombined(b *testing.B) {
	recs := w91Records(*benchScale)
	base := baseline(b, recs)
	b.ReportAllocs()
	var saf float64
	for i := 0; i < b.N; i++ {
		d := smrseek.DefaultDefrag()
		p := smrseek.DefaultPrefetch()
		c := smrseek.DefaultCache()
		saf = safOf(b, smrseek.Config{LogStructured: true, Defrag: &d, Prefetch: &p, Cache: &c}, recs, base)
	}
	b.ReportMetric(saf*1000, "saf_millis")
}

// BenchmarkAblationCombinedBanded is BenchmarkAblationCombined on the
// finite banded device instead of the infinite model: same mechanisms,
// same trace, plus per-band write pointers, the persistent cache and
// the cleaning engine in the device path.
func BenchmarkAblationCombinedBanded(b *testing.B) {
	recs := w91Records(*benchScale)
	base := baseline(b, recs)
	b.ReportAllocs()
	var saf, wa float64
	for i := 0; i < b.N; i++ {
		dev, err := smrseek.NewBandDevice(smrseek.BandConfig{
			CacheSectors: 1 << 20,
			Policy:       smrseek.PolA,
		})
		if err != nil {
			b.Fatal(err)
		}
		d := smrseek.DefaultDefrag()
		p := smrseek.DefaultPrefetch()
		c := smrseek.DefaultCache()
		st, err := smrseek.RunPreloadedContext(context.Background(), smrseek.Config{
			Device:        dev,
			LogStructured: true,
			Defrag:        &d,
			Prefetch:      &p,
			Cache:         &c,
		}, recs)
		if err != nil {
			b.Fatal(err)
		}
		saf = float64(st.Disk.TotalSeeks()) / float64(base)
		wa = st.Cleaning.WriteAmp()
	}
	b.ReportMetric(saf*1000, "saf_millis")
	b.ReportMetric(wa*1000, "wa_millis")
}

// BenchmarkSimulatorThroughput measures raw simulation speed (ops/sec)
// of the plain LS pipeline — the engineering number that bounds how big
// a trace the library can replay.
func BenchmarkSimulatorThroughput(b *testing.B) {
	pl := smrseek.PreloadRecords(smrseek.MustWorkload("w89").Generate(0.5))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smrseek.RunPreloadedContext(context.Background(), smrseek.Config{LogStructured: true}, pl); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(pl.Len()*b.N)/b.Elapsed().Seconds(), "ops/s")
}

func byteLabel(mb int64) string {
	switch {
	case mb >= 1024:
		return "1GiB"
	default:
		return itoa(mb) + "MiB"
	}
}

func gateLabel(g smrseek.DefragConfig) string {
	return "N" + itoa(int64(g.MinFragments)) + "k" + itoa(int64(g.MinAccesses))
}

func itoa(v int64) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
