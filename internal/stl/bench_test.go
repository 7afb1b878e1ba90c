package stl

import (
	"os"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

// BenchmarkRecoverDir measures end-to-end verified recovery — audit,
// parse, replay into a fresh extent map — of a multi-segment journal.
func BenchmarkRecoverDir(b *testing.B) {
	dir := b.TempDir()
	log, err := journal.Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := log.SetSegmentSize(256); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		rec := journal.Record{Kind: journal.RecWrite, Lba: geom.Ext(int64(i)%4000*8, 8), Pba: geom.Sector(i) * 8}
		if err := log.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(journal.JournalPath(dir))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	for i := 0; i < b.N; i++ {
		_, st, err := RecoverDirWith(dir, RecoverOptions{VerifyOnRecover: true})
		if err != nil {
			b.Fatal(err)
		}
		if st.Replayed != 20000 || !st.Verified {
			b.Fatalf("recovery stats %+v", st)
		}
	}
}

// BenchmarkRecoverApply measures Recover alone — the check pass and the
// apply pass, no file I/O — on the record stream of the end-to-end
// benchmark's crash-recover workload: w36 with its seed XOR-ed with 1
// at scale 2.4, every write journaled at the frontier of a plain LS
// volume whose frontier starts at the trace's highest LBA.
func BenchmarkRecoverApply(b *testing.B) {
	p, err := workload.ByName("w36")
	if err != nil {
		b.Fatal(err)
	}
	p.Seed ^= 1
	recs := p.Generate(2.4)
	d := journal.Data{Generation: 1, InitFrontier: trace.MaxLBA(recs)}
	pba := d.InitFrontier
	for _, r := range recs {
		if r.Kind == disk.Write && !r.Extent.Empty() {
			d.Records = append(d.Records, journal.Record{Kind: journal.RecWrite, Lba: r.Extent, Pba: pba})
			pba += r.Extent.Count
		}
	}
	b.ResetTimer()
	var l *LS
	for i := 0; i < b.N; i++ {
		if l, _, err = Recover(nil, d); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(d.Records)), "records")
	b.ReportMetric(float64(l.Map().Len()), "mappings")
}

// BenchmarkLSWrites measures the log-structured write path — one
// extent-map splice per write — on the write stream of the end-to-end
// benchmark's durable-write workload: w36 with its seed XOR-ed with 1
// at scale 2.8, every write sent through LS.WriteAppend into a fresh
// layer whose frontier starts at the trace's highest LBA. It reports
// the time per write and the final mapping count.
func BenchmarkLSWrites(b *testing.B) {
	p, err := workload.ByName("w36")
	if err != nil {
		b.Fatal(err)
	}
	p.Seed ^= 1
	recs := p.Generate(2.8)
	frontier := trace.MaxLBA(recs)
	var writes []geom.Extent
	for _, r := range recs {
		if r.Kind == disk.Write && !r.Extent.Empty() {
			writes = append(writes, r.Extent)
		}
	}
	b.ResetTimer()
	var (
		l   *LS
		dst []Fragment
	)
	for i := 0; i < b.N; i++ {
		l = NewLS(frontier)
		for _, e := range writes {
			dst = l.WriteAppend(dst[:0], e)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(writes)), "ns/write")
	b.ReportMetric(float64(l.Map().Len()), "mappings")
}
