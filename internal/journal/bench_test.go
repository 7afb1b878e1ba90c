package journal

import (
	"bytes"
	"os"
	"testing"

	"smrseek/internal/geom"
)

// BenchmarkAppend measures the per-record write-ahead logging cost the
// simulator pays on every journaled mutation, flushing every 32 appends
// the way a volume actor commits a full batch.
func BenchmarkAppend(b *testing.B) {
	lg, err := Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer lg.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := Record{Kind: RecWrite, Lba: geom.Ext(int64(i)%100000, 8), Pba: int64(i) * 8}
		if err := lg.Append(rec); err != nil {
			b.Fatal(err)
		}
		if i%32 == 31 {
			if err := lg.Flush(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// sealedBenchDir journals nRecs records in segments of seg and closes
// the log, leaving a multi-segment sealed journal for audit benchmarks.
func sealedBenchDir(b testing.TB, nRecs, seg int) string {
	b.Helper()
	dir := b.TempDir()
	lg, err := Open(dir, 0)
	if err != nil {
		b.Fatal(err)
	}
	if err := lg.SetSegmentSize(seg); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < nRecs; i++ {
		rec := Record{Kind: RecWrite, Lba: geom.Ext(int64(i)%100000*8, 8), Pba: int64(i) * 8}
		if err := lg.Append(rec); err != nil {
			b.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		b.Fatal(err)
	}
	return dir
}

// BenchmarkVerifyDir measures the full directory audit — every frame
// CRC, every seal, the checkpoint pairing — of a 20 k-record journal.
func BenchmarkVerifyDir(b *testing.B) {
	dir := sealedBenchDir(b, 20000, 256)
	fi, err := os.Stat(JournalPath(dir))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	for i := 0; i < b.N; i++ {
		a, err := VerifyDir(dir)
		if err != nil {
			b.Fatal(err)
		}
		if len(a.Segments) != 20000/256 {
			b.Fatalf("audited %d segments", len(a.Segments))
		}
	}
}

// BenchmarkScanBytes measures replay-side parsing of a 10k-record log.
func BenchmarkScanBytes(b *testing.B) {
	var buf bytes.Buffer
	buf.Write(marshalHeader(1, 0, 0))
	for i := 0; i < 10000; i++ {
		buf.Write(MarshalRecord(Record{Kind: RecWrite, Lba: geom.Ext(int64(i), 8), Pba: int64(i) * 8}))
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := ScanBytes(raw)
		if err != nil {
			b.Fatal(err)
		}
		if len(d.Records) != 10000 || d.Torn {
			b.Fatalf("replay parsed %d records, torn=%v", len(d.Records), d.Torn)
		}
	}
}
