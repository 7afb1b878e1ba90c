package band

import (
	"math/rand"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
)

// BenchmarkBandClean replays a deterministic rewrite-heavy stream that
// keeps the persistent cache full, so every iteration exercises the
// redirect path and the band cleaning engine continuously — the
// hot loop a banded simulation spends its time in. The plain shapes
// confine the stream to 34 bands; the -wide ones spread the same number
// of ops over 2^23 sectors, so the device tracks thousands of bands and
// anything in a clean that grows with the band count shows (their
// allocs/op is one bandState per band first touched, not cleaning).
func BenchmarkBandClean(b *testing.B) {
	type op struct {
		kind disk.OpKind
		ext  geom.Extent
	}
	for _, shape := range []struct {
		suffix string
		span   int64 // op start addresses are drawn from [0, span)
	}{{"", 1 << 13}, {"-wide", 1 << 23}} {
		rng := rand.New(rand.NewSource(1))
		ops := make([]op, 20000)
		for i := range ops {
			kind := disk.Read
			if rng.Intn(2) == 0 {
				kind = disk.Write
			}
			ops[i] = op{kind, geom.Ext(rng.Int63n(shape.span), 1+rng.Int63n(512))}
		}
		for _, pol := range []Policy{PolA, PolB, Shelter} {
			pol := pol
			b.Run(pol.String()+shape.suffix, func(b *testing.B) {
				b.ReportAllocs()
				var cleaned, stalls int64
				for i := 0; i < b.N; i++ {
					d, err := New(Config{
						BandSectors:  256,
						CacheSectors: 2048,
						UnitSectors:  512,
						DataSectors:  1 << 24,
						Policy:       pol,
					})
					if err != nil {
						b.Fatal(err)
					}
					for _, o := range ops {
						d.Do(o.kind, o.ext)
					}
					c := d.Cleaning()
					cleaned, stalls = c.BandsCleaned, c.Stalls
					if cleaned == 0 {
						b.Fatal("workload did not reach the cleaner")
					}
				}
				b.ReportMetric(float64(cleaned)/float64(len(ops))*1000, "cleans_per_kop")
				b.ReportMetric(float64(stalls)/float64(len(ops))*1000, "stalls_per_kop")
			})
		}
	}
}
