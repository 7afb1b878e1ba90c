package journal

import (
	"errors"
	"os"
	"testing"
)

// TestAppendBuffersUntilFlush: appends reach the file only through
// Flush, and the flushed file is exactly the log's logical size.
func TestAppendBuffersUntilFlush(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.SetSegmentSize(3); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if err := l.Append(rec(RecWrite, i*4, 4, i*4)); err != nil {
			t.Fatal(err)
		}
	}
	want := int64(headerSize + 4*frameSize + sealFrameSize)
	if got := fileLen(t, JournalPath(dir)); got != headerSize || l.Buffered() != int(want-headerSize) {
		t.Fatalf("before Flush: %d B on file, %d B buffered; want %d and %d", got, l.Buffered(), headerSize, want-headerSize)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := fileLen(t, JournalPath(dir)); got != want || got != l.size || l.Buffered() != 0 {
		t.Fatalf("after Flush: %d B on file, logical %d, %d buffered; want %d", got, l.size, l.Buffered(), want)
	}
}

// TestCrashAfterFlushesBufferedFrames: a crash point that fires with
// frames still buffered writes them first, then the torn prefix, so
// records 1..n-1 replay and record n is torn.
func TestCrashAfterFlushesBufferedFrames(t *testing.T) {
	for _, torn := range []int{0, 13} {
		dir := t.TempDir()
		l, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		l.CrashAfter(5, torn)
		for i := int64(0); i < 4; i++ {
			if err := l.Append(rec(RecWrite, i*2, 2, i*2)); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Append(rec(RecWrite, 8, 2, 8)); !errors.Is(err, ErrCrashed) {
			t.Fatalf("torn=%d: crash append returned %v", torn, err)
		}
		// Read before Close: the crash itself must have written the file.
		raw, err := os.ReadFile(JournalPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if want := headerSize + 4*frameSize + torn; len(raw) != want {
			t.Errorf("torn=%d: %d B on file, want %d", torn, len(raw), want)
		}
		d, err := ScanBytes(raw)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Records) != 4 || d.Torn != (torn > 0) {
			t.Errorf("torn=%d: %d records, Torn=%v; want 4 and %v", torn, len(d.Records), d.Torn, torn > 0)
		}
		l.Close()
	}
}

// TestFailedFlushIsSticky: after a failed write the file's tail is
// unknown, so the log refuses every later append, flush and checkpoint.
func TestFailedFlushIsSticky(t *testing.T) {
	l, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(RecWrite, 0, 4, 0)); err != nil {
		t.Fatal(err)
	}
	l.f.Close() // the next Write fails
	ferr := l.Flush()
	if ferr == nil {
		t.Fatal("Flush to a closed file succeeded")
	}
	if err := l.Append(rec(RecWrite, 4, 4, 4)); !errors.Is(err, ferr) {
		t.Errorf("Append after failed Flush: %v, want %v", err, ferr)
	}
	if err := l.Flush(); !errors.Is(err, ferr) {
		t.Errorf("second Flush: %v, want %v", err, ferr)
	}
	if err := l.Checkpoint(Snapshot{}); !errors.Is(err, ferr) {
		t.Errorf("Checkpoint after failed Flush: %v, want %v", err, ferr)
	}
}

func fileLen(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}
