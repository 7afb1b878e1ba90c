package journal

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"smrseek/internal/extmap"
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
	raw, d := scanJournal(t, l, dir)
	if len(d.Records) != 8 || d.Sealed != 6 || len(d.Seals) != 2 || d.Torn {
		t.Fatalf("scan: records=%d sealed=%d seals=%d torn=%v", len(d.Records), d.Sealed, len(d.Seals), d.Torn)
	}
	for i, s := range d.Seals {
		if s.Index != i || s.Count != 3 || s.First != int64(i*3+1) {
			t.Errorf("seal %d = %+v", i, s)
		}
		if raw[s.Offset+4] != byte(RecSeal) {
			t.Errorf("seal %d offset %d does not point at a seal frame", i, s.Offset)
		}
	}
}

func TestSealAndReopen(t *testing.T) {
	dir := t.TempDir()
	l := sealedLog(t, dir, 5, 4)
	defer l.Close()
	if _, d := scanJournal(t, l, dir); d.Sealed != 0 {
		t.Fatalf("premature seal: %d", d.Sealed)
	}
	if err := l.Append(rec(RecWrite, 16, 4, 16)); err != nil {
		t.Fatal(err)
	}
	if _, d := scanJournal(t, l, dir); d.Sealed != 5 || len(d.Seals) != 1 {
		t.Fatalf("seal on the fifth record: sealed=%d seals=%d", d.Sealed, len(d.Seals))
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
	_, d := scanJournal(t, l, dir)
	if s := d.Seals; len(s) != 1 || s[0].Index != 0 || s[0].First != 1 || s[0].Count != 2 {
		t.Errorf("post-checkpoint seals %+v, want one seal of records 1..2 at index 0", s)
	}
}

// TestResumeLeavesNoCheckpointTmp: a checkpoint.tmp left by a crash
// mid-checkpoint does not survive a resume, whose checkpoint overwrites
// and renames it.
func TestResumeLeavesNoCheckpointTmp(t *testing.T) {
	dir := t.TempDir()
	sealedLog(t, dir, 4, 3).Close()
	tmp := filepath.Join(dir, checkpointTmp)
	if err := os.WriteFile(tmp, []byte("half-written checkpoint"), 0o666); err != nil {
		t.Fatal(err)
	}
	l, err := Resume(dir, 1, 12, 12, extmap.NewCoalesced())
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := os.Stat(tmp); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("stale %s survived Resume: %v", checkpointTmp, err)
	}
}

// TestResumeCheckpointsBeforeRebirth: Resume writes the recovered state
// as a checkpoint under the recovered journal's generation, then
// rebirths the journal paired with it. Until the rebirth the old journal
// reads as stale, so a crash between the two replays nothing twice.
func TestResumeCheckpointsBeforeRebirth(t *testing.T) {
	dir := t.TempDir()
	sealedLog(t, dir, 4, 6).Close()
	old := readFileT(t, JournalPath(dir))
	m := extmap.NewCoalesced()
	m.Insert(geom.Ext(0, 24), 0)
	l, err := Resume(dir, 1, 24, 24, m)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if a.CheckpointGeneration != 1 || a.Generation != 2 || a.Stale || a.Mappings != 1 {
		t.Errorf("resumed directory audit %+v, want checkpoint 1 paired with journal 2", a)
	}

	// A crash after the checkpoint's rename but before the rebirth leaves
	// the new checkpoint beside the old journal: stale, never replayed.
	snap, d, err := LoadDir(writePair(t, old, readFileT(t, CheckpointPath(dir))))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) != 0 || snap == nil || snap.Frontier != 24 || len(snap.Mappings) != 1 {
		t.Errorf("crash mid-resume: %d records to replay over %+v, want the checkpoint alone", len(d.Records), snap)
	}
}

// scanJournal flushes l and scans the journal file in dir, as recovery
// would read it.
func scanJournal(t testing.TB, l *Log, dir string) ([]byte, Data) {
	t.Helper()
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
	return raw, d
}

func readFileT(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return raw
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
