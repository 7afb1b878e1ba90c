package stl

import (
	"os"
	"testing"

	"smrseek/internal/geom"
	"smrseek/internal/journal"
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
