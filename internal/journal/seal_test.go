package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smrseek/internal/geom"
)

// sealedLog opens a log in dir with a small segment size and appends n
// records through it.
func sealedLog(t *testing.T, dir string, segSize int, n int64) *Log {
	t.Helper()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetSegmentSize(segSize); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < n; i++ {
		if err := l.Append(rec(RecWrite, i*4, 4, i*4)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestSealCadence(t *testing.T) {
	dir := t.TempDir()
	l := sealedLog(t, dir, 3, 8) // 8 records, segment size 3: seals at 3 and 6
	defer l.Close()
	if got := l.SealedRecords(); got != 6 {
		t.Errorf("sealed %d records, want 6", got)
	}
	seals := l.Seals()
	if len(seals) != 2 {
		t.Fatalf("%d seals, want 2", len(seals))
	}
	for i, s := range seals {
		if s.Index != i || s.Count != 3 || s.First != int64(i*3+1) {
			t.Errorf("seal %d = %+v", i, s)
		}
	}

	// A scan must reproduce exactly the same seal view.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	d, err := ScanBytes(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) != 8 || d.Sealed != 6 || len(d.Seals) != 2 || d.Torn {
		t.Fatalf("scan: records=%d sealed=%d seals=%d torn=%v", len(d.Records), d.Sealed, len(d.Seals), d.Torn)
	}
	if !reflect.DeepEqual(d.Seals, seals) {
		t.Errorf("scan seals %+v differ from live log %+v", d.Seals, seals)
	}
	if seals[0].Offset < headerSize || raw[seals[0].Offset+4] != byte(RecSeal) {
		t.Errorf("seal 0 offset %d does not point at a seal frame", seals[0].Offset)
	}
}

func TestSealAndReopen(t *testing.T) {
	dir := t.TempDir()
	l := sealedLog(t, dir, 5, 4)
	if l.SealedRecords() != 0 {
		t.Fatalf("premature seal: %d", l.SealedRecords())
	}
	if err := l.Append(rec(RecWrite, 16, 4, 16)); err != nil {
		t.Fatal(err)
	}
	if l.SealedRecords() != 5 || len(l.Seals()) != 1 {
		t.Fatalf("seal on the fifth record: sealed=%d seals=%d", l.SealedRecords(), len(l.Seals()))
	}
	seals := l.Seals()
	l.Close()

	// Reopen must rebuild the sealing state and keep the seals going.
	l2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.SetSegmentSize(5); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l2.Seals(), seals) || l2.SealedRecords() != 5 {
		t.Fatalf("reopen lost seal state: seals=%+v sealed=%d", l2.Seals(), l2.SealedRecords())
	}
	for i := int64(5); i < 10; i++ {
		if err := l2.Append(rec(RecWrite, i*4, 4, i*4)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l2.Seals()) != 2 {
		t.Fatalf("appended past segment size after reopen, %d seals", len(l2.Seals()))
	}
	if s := l2.Seals()[1]; s.Index != 1 || s.First != 6 || s.Count != 5 {
		t.Errorf("post-reopen seal %+v does not follow the pre-reopen one", s)
	}
}

// TestCheckpointPairsJournal: the journal reborn after a checkpoint
// carries the checkpoint's trailing CRC and the next generation, and
// its seals start over at index 0.
func TestCheckpointPairsJournal(t *testing.T) {
	dir := t.TempDir()
	l := sealedLog(t, dir, 2, 5) // 2 seals, 1 unsealed record
	defer l.Close()
	if err := l.Checkpoint(Snapshot{Frontier: 20, Written: 20}); err != nil {
		t.Fatal(err)
	}
	craw, err := os.ReadFile(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	ckptCRC := binary.LittleEndian.Uint32(craw[len(craw)-4:])
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	gen, _, headerCRC, err := unmarshalHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if headerCRC != ckptCRC || gen != 2 {
		t.Errorf("reborn header: generation %d, checkpoint CRC %08x; want 2, %08x", gen, headerCRC, ckptCRC)
	}
	if err := l.Append(rec(RecWrite, 100, 4, 20)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(RecWrite, 104, 4, 24)); err != nil {
		t.Fatal(err)
	}
	if s := l.Seals(); len(s) != 1 || s[0].Index != 0 || s[0].First != 1 || s[0].Count != 2 {
		t.Errorf("post-checkpoint seals %+v, want one seal of records 1..2 at index 0", s)
	}
}

func TestOpenRemovesStaleCheckpointTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(dir, 0o777); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, checkpointTmp)
	if err := os.WriteFile(tmp, []byte("half-written checkpoint"), 0o666); err != nil {
		t.Fatal(err)
	}
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale %s survived Open: %v", checkpointTmp, err)
	}
}

func TestCheckpointDirDurability(t *testing.T) {
	// syncDir is called on the real path; at minimum it must work on a
	// real directory and fail on a missing one (the crash-consistency
	// property itself needs power-cut hardware to test).
	if err := syncDir(t.TempDir()); err != nil {
		t.Errorf("syncDir on a real dir: %v", err)
	}
	if err := syncDir(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("syncDir on a missing dir succeeded")
	}
	// And Checkpoint must still work end to end on a deep directory.
	dir := filepath.Join(t.TempDir(), "a", "b")
	l := sealedLog(t, dir, 2, 3)
	defer l.Close()
	if err := l.Checkpoint(Snapshot{Frontier: 12, Written: 12}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(CheckpointPath(dir)); err != nil {
		t.Fatal(err)
	}
}

func TestSetSegmentSizeRejectsNonPositive(t *testing.T) {
	l, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, n := range []int{0, -1} {
		if err := l.SetSegmentSize(n); err == nil {
			t.Errorf("SetSegmentSize(%d) accepted", n)
		}
	}
}

func TestAppendRejectsSealKind(t *testing.T) {
	l, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Append(Record{Kind: RecSeal, Lba: geom.Ext(0, 4)}); err == nil {
		t.Error("Append accepted a RecSeal record")
	}
}
