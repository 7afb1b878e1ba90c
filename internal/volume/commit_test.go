package volume

import (
	"context"
	"os"
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
)

// Journal framing sizes (docs/FORMATS.md): a 32-byte header, then one
// 33-byte frame per record. The volumes below never seal, so the
// journal's logical size after n records is exactly walSize(n).
const (
	walHeader = 32
	walFrame  = 33
)

func walSize(n int) int64 { return walHeader + walFrame*int64(n) }

// openUnsealed opens a journaled volume that neither checkpoints nor
// seals mid-run, so its journal file grows by one frame per write.
func openUnsealed(t *testing.T, queue int) (*Volume, string) {
	t.Helper()
	dir := t.TempDir()
	v, err := Open(Config{
		Name:       "gc",
		Sim:        core.Config{LogStructured: true, FrontierStart: 1 << 22},
		QueueDepth: queue,
		JournalDir: dir,
		SealEvery:  1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v, journal.JournalPath(dir)
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestAckedImpliesOnFile is the group-commit durability rule: every
// acknowledged record is in the journal file before its ack.
func TestAckedImpliesOnFile(t *testing.T) {
	// Synchronous round trips: the actor is idle once a result arrives,
	// so the file must hold exactly the log's logical size.
	t.Run("sync", func(t *testing.T) {
		v, path := openUnsealed(t, 0)
		defer v.Close()
		for n := 1; n <= 40; n++ {
			if _, err := v.Do(context.Background(), OpWrite, geom.Ext(geom.Sector(n*8), 8)); err != nil {
				t.Fatal(err)
			}
			if got := fileSize(t, path); got != walSize(n) || v.wal.Buffered() != 0 {
				t.Fatalf("after ack %d: file %d B with %d B buffered, want %d B on file",
					n, got, v.wal.Buffered(), walSize(n))
			}
		}
	})

	// Pipelined: every result shares a one-slot done channel, so the
	// actor blocks delivering a batch's second result until the first is
	// received. An actor that acked before its journal write would be
	// stuck short of that write here, and the file would lag the acks.
	t.Run("pipelined", func(t *testing.T) {
		const n = 256
		v, path := openUnsealed(t, n)
		defer v.Close()
		done := make(chan Result, 1)
		for i := 0; i < n; i++ {
			if err := v.TryDo(Request{Kind: OpWrite, Extent: geom.Ext(geom.Sector(i*8), 8)}, done); err != nil {
				t.Fatal(err)
			}
		}
		// Receive every result even after a failure: an undrained channel
		// would leave the actor, and so Close, blocked.
		for acked := 1; acked <= n; acked++ {
			if r := <-done; r.Err != nil {
				t.Error(r.Err)
			}
			if got := fileSize(t, path); got < walSize(acked) && !t.Failed() {
				t.Errorf("ack %d received with %d B on file, want >= %d", acked, got, walSize(acked))
			}
		}
	})
}

// TestFailedFlushFailsBatchAndAfter: a journal write that fails must
// fail every result held for it and, sticky, every later read or write.
func TestFailedFlushFailsBatchAndAfter(t *testing.T) {
	v, _ := openUnsealed(t, 0)
	ctx := context.Background()
	if _, err := v.Do(ctx, OpWrite, geom.Ext(0, 8)); err != nil {
		t.Fatal(err)
	}
	// The actor is idle between round trips; closing the log's file
	// under it makes the next batch's flush fail.
	if err := v.wal.Close(); err != nil {
		t.Fatal(err)
	}
	const n = 16
	done := make(chan Result, n)
	for i := 0; i < n; i++ {
		if err := v.TryDo(Request{Kind: OpWrite, Extent: geom.Ext(geom.Sector(64+i*8), 8)}, done); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if r := <-done; r.Err == nil {
			t.Fatalf("write %d acknowledged after its journal write failed", i)
		}
	}
	for _, op := range []Op{OpRead, OpWrite} {
		if _, err := v.Do(ctx, op, geom.Ext(0, 8)); err == nil {
			t.Errorf("%v after a failed journal write succeeded", op)
		}
	}
	if err := v.Close(); err == nil {
		t.Error("Close after a failed journal write reported success")
	}
}
