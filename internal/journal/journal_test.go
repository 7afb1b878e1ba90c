package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smrseek/internal/extmap"
	"smrseek/internal/geom"
)

func rec(kind RecordKind, start, count, pba int64) Record {
	return Record{Kind: kind, Lba: geom.Ext(start, count), Pba: pba}
}

func TestRecordRoundTrip(t *testing.T) {
	recs := []Record{
		rec(RecWrite, 0, 1, 0),
		rec(RecRelocate, 1<<40, 1<<20, 1<<50),
		rec(RecFrontier, 0, 0, 12345),
	}
	var buf bytes.Buffer
	buf.Write(marshalHeader(7, 999, 0))
	for _, r := range recs {
		buf.Write(MarshalRecord(r))
	}
	d, err := ScanBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if d.Generation != 7 || d.InitFrontier != 999 {
		t.Errorf("header = gen %d frontier %d, want 7/999", d.Generation, d.InitFrontier)
	}
	if d.Torn {
		t.Error("clean journal reported torn")
	}
	if len(d.Records) != len(recs) {
		t.Fatalf("got %d records, want %d", len(d.Records), len(recs))
	}
	for i, r := range recs {
		if d.Records[i] != r {
			t.Errorf("record %d = %+v, want %+v", i, d.Records[i], r)
		}
	}
}

func TestReadJournalTornTails(t *testing.T) {
	full := MarshalRecord(rec(RecWrite, 10, 5, 100))
	// Every possible torn prefix of the final record must be detected
	// and must not hide the preceding complete record.
	for cut := 0; cut < len(full); cut++ {
		var buf bytes.Buffer
		buf.Write(marshalHeader(1, 0, 0))
		buf.Write(MarshalRecord(rec(RecWrite, 0, 2, 50)))
		buf.Write(full[:cut])
		d, err := ScanBytes(buf.Bytes())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(d.Records) != 1 {
			t.Fatalf("cut %d: got %d records, want 1", cut, len(d.Records))
		}
		if cut == 0 {
			if d.Torn {
				t.Errorf("cut 0 is a clean EOF, reported torn")
			}
		} else if !d.Torn {
			t.Errorf("cut %d: torn tail not detected", cut)
		}
	}
}

func TestReadJournalCorruptTail(t *testing.T) {
	var buf bytes.Buffer
	buf.Write(marshalHeader(1, 0, 0))
	buf.Write(MarshalRecord(rec(RecWrite, 0, 2, 50)))
	frame := MarshalRecord(rec(RecWrite, 2, 2, 52))
	frame[5] ^= 0xff // corrupt payload byte; CRC now mismatches
	buf.Write(frame)
	d, err := ScanBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Torn || len(d.Records) != 1 {
		t.Errorf("torn=%v records=%d, want torn with 1 record", d.Torn, len(d.Records))
	}

	// CRC-valid frame with an unreplayable payload (unknown kind).
	buf.Reset()
	buf.Write(marshalHeader(1, 0, 0))
	bad := make([]byte, payloadSize)
	bad[0] = 99 // no such kind
	var frame2 bytes.Buffer
	lenb := make([]byte, 4)
	binary.LittleEndian.PutUint32(lenb, payloadSize)
	frame2.Write(lenb)
	frame2.Write(bad)
	crcb := make([]byte, 4)
	binary.LittleEndian.PutUint32(crcb, crc32.ChecksumIEEE(bad))
	frame2.Write(crcb)
	buf.Write(frame2.Bytes())
	d, err = ScanBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !d.Torn || len(d.Records) != 0 {
		t.Errorf("unknown kind: torn=%v records=%d, want torn with 0 records", d.Torn, len(d.Records))
	}
}

func TestReadJournalBadHeader(t *testing.T) {
	cases := map[string][]byte{
		"empty":     nil,
		"short":     []byte("SMRWAL03abc"),
		"bad magic": append([]byte("NOTMAGIC"), marshalHeader(1, 0, 0)[8:]...),
	}
	hdr := marshalHeader(1, 0, 0)
	hdr[9] ^= 0x01
	cases["bad crc"] = hdr
	for name, data := range cases {
		if _, err := ScanBytes(data); err == nil {
			t.Errorf("%s header accepted", name)
		}
	}
}

func TestLogAppendAndReload(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 500)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 10; i++ {
		if err := l.Append(rec(RecWrite, i*4, 4, 500+i*4)); err != nil {
			t.Fatal(err)
		}
	}
	if l.Appends() != 10 || l.SinceCheckpoint() != 10 {
		t.Errorf("appends=%d since=%d, want 10/10", l.Appends(), l.SinceCheckpoint())
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the journal validates, the checkpoint age is recounted,
	// and appends continue where they left off.
	l2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if l2.SinceCheckpoint() != 10 {
		t.Errorf("reopened since=%d, want 10", l2.SinceCheckpoint())
	}
	if err := l2.Append(rec(RecWrite, 100, 2, 540)); err != nil {
		t.Fatal(err)
	}
	if err := l2.Flush(); err != nil {
		t.Fatal(err)
	}
	snap, d, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil {
		t.Error("unexpected checkpoint")
	}
	if len(d.Records) != 11 || d.Torn {
		t.Errorf("records=%d torn=%v, want 11 clean", len(d.Records), d.Torn)
	}
	if d.InitFrontier != 500 {
		t.Errorf("init frontier %d, want 500 (reopen must not rewrite the header)", d.InitFrontier)
	}
}

func TestLogCheckpointTruncatesAndGuardsGeneration(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for i := int64(0); i < 5; i++ {
		if err := l.Append(rec(RecWrite, i, 1, i)); err != nil {
			t.Fatal(err)
		}
	}
	snap := Snapshot{
		Frontier: 5,
		Written:  5,
		Mappings: []extmap.Mapping{{Lba: geom.Ext(0, 5), Pba: 0}},
	}
	if err := l.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	if l.SinceCheckpoint() != 0 || l.Checkpoints() != 1 {
		t.Errorf("since=%d ckpts=%d, want 0/1", l.SinceCheckpoint(), l.Checkpoints())
	}
	if l.Generation() != 2 {
		t.Errorf("generation %d, want 2", l.Generation())
	}
	if err := l.Append(rec(RecWrite, 5, 1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}

	got, d, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Frontier != 5 || got.Written != 5 || len(got.Mappings) != 1 {
		t.Fatalf("checkpoint = %+v", got)
	}
	if got.Generation != 1 {
		t.Errorf("checkpoint generation %d, want 1", got.Generation)
	}
	if len(d.Records) != 1 {
		t.Errorf("post-checkpoint journal has %d records, want 1", len(d.Records))
	}

	// Simulate a crash between checkpoint rename and journal truncate:
	// restore a stale journal (old generation, full of records) next to
	// the new checkpoint. LoadDir must refuse to replay it.
	stale := bytes.NewBuffer(marshalHeader(1, 0, 0))
	for i := int64(0); i < 5; i++ {
		stale.Write(MarshalRecord(rec(RecWrite, i, 1, i)))
	}
	if err := os.WriteFile(JournalPath(dir), stale.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	got, d, err = LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || len(d.Records) != 0 || d.Torn {
		t.Errorf("stale journal replayed: records=%d torn=%v", len(d.Records), d.Torn)
	}
}

func TestLogCrashAfterWritesTornPrefix(t *testing.T) {
	for _, torn := range []int{0, 1, 10, frameSize - 1, frameSize, 9999} {
		dir := t.TempDir()
		l, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		l.CrashAfter(3, torn)
		var appendErr error
		n := 0
		for i := int64(0); i < 5; i++ {
			if err := l.Append(rec(RecWrite, i*2, 2, i*2)); err != nil {
				appendErr = err
				break
			}
			n++
		}
		if !errors.Is(appendErr, ErrCrashed) {
			t.Fatalf("torn=%d: append error %v, want ErrCrashed", torn, appendErr)
		}
		if n != 2 {
			t.Fatalf("torn=%d: %d appends succeeded, want 2", torn, n)
		}
		if err := l.Append(rec(RecWrite, 0, 1, 0)); !errors.Is(err, ErrCrashed) {
			t.Errorf("torn=%d: crashed log accepted an append: %v", torn, err)
		}
		if err := l.Checkpoint(Snapshot{}); !errors.Is(err, ErrCrashed) {
			t.Errorf("torn=%d: crashed log accepted a checkpoint: %v", torn, err)
		}
		l.Close()

		_, d, err := LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Records) != 2 {
			t.Errorf("torn=%d: recovered %d records, want 2", torn, len(d.Records))
		}
		if wantTorn := torn > 0; d.Torn != wantTorn {
			t.Errorf("torn=%d: Torn=%v, want %v", torn, d.Torn, wantTorn)
		}
	}
}

func TestLogFailerFailsCleanly(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	boom := errors.New("transient journal fault")
	fails := 0
	l.SetFailer(func(seq int64, r Record) error {
		if seq == 2 && fails < 2 {
			fails++
			return boom
		}
		return nil
	})
	if err := l.Append(rec(RecWrite, 0, 1, 0)); err != nil {
		t.Fatal(err)
	}
	// Two failures, then the retry succeeds — and the failed attempts
	// must have persisted nothing.
	for i := 0; i < 2; i++ {
		if err := l.Append(rec(RecWrite, 1, 1, 1)); !errors.Is(err, boom) {
			t.Fatalf("attempt %d: %v, want injected fault", i, err)
		}
	}
	if err := l.Append(rec(RecWrite, 1, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	_, d, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) != 2 || d.Torn {
		t.Errorf("records=%d torn=%v, want exactly the 2 acked appends", len(d.Records), d.Torn)
	}
}

func TestOpenRejectsTornJournal(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	l.CrashAfter(1, 7)
	if err := l.Append(rec(RecWrite, 0, 1, 0)); !errors.Is(err, ErrCrashed) {
		t.Fatal(err)
	}
	l.Close()
	if _, err := Open(dir, 0); err == nil || !strings.Contains(err.Error(), "torn") {
		t.Errorf("Open on torn journal: %v, want torn-tail rejection", err)
	}
}

func TestOpenRejectsNegativeFrontier(t *testing.T) {
	if _, err := Open(t.TempDir(), -1); err == nil {
		t.Error("negative initial frontier accepted")
	}
}

func TestAppendRejectsInvalidRecord(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	for _, bad := range []Record{
		{Kind: RecWrite, Lba: geom.Ext(0, 0), Pba: 0},  // empty extent
		{Kind: RecWrite, Lba: geom.Ext(-1, 4), Pba: 0}, // negative LBA
		{Kind: 42, Lba: geom.Ext(0, 4), Pba: 0},        // unknown kind
		{Kind: RecFrontier, Pba: -5},                   // negative frontier
	} {
		if err := l.Append(bad); err == nil {
			t.Errorf("invalid record %+v accepted", bad)
		}
	}
	if l.Appends() != 0 {
		t.Errorf("invalid records counted: %d", l.Appends())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	snap := Snapshot{
		Generation: 42,
		Frontier:   1 << 40,
		Written:    1 << 41,
		Mappings: []extmap.Mapping{
			{Lba: geom.Ext(0, 8), Pba: 1000},
			{Lba: geom.Ext(64, 128), Pba: 1008},
		},
	}
	var buf bytes.Buffer
	if _, err := WriteCheckpoint(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, _, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != snap.Generation || got.Frontier != snap.Frontier || got.Written != snap.Written {
		t.Errorf("got %+v, want %+v", got, snap)
	}
	if len(got.Mappings) != 2 || got.Mappings[0] != snap.Mappings[0] || got.Mappings[1] != snap.Mappings[1] {
		t.Errorf("mappings %v, want %v", got.Mappings, snap.Mappings)
	}

	// Any single-byte corruption must be rejected.
	data := buf.Bytes()
	for _, i := range []int{0, 9, 20, 30, 41, len(data) - 2} {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0xff
		if _, _, err := ReadCheckpoint(bytes.NewReader(mut)); err == nil {
			t.Errorf("corruption at byte %d accepted", i)
		}
	}
	// Truncation too.
	for _, n := range []int{0, 10, ckptFixedSize, len(data) - 1} {
		if _, _, err := ReadCheckpoint(bytes.NewReader(data[:n])); err == nil {
			t.Errorf("truncation to %d bytes accepted", n)
		}
	}
}

func TestReadCheckpointRejectsUnsortedMappings(t *testing.T) {
	snap := Snapshot{
		Mappings: []extmap.Mapping{
			{Lba: geom.Ext(64, 8), Pba: 0},
			{Lba: geom.Ext(0, 8), Pba: 8}, // out of order
		},
	}
	var buf bytes.Buffer
	if _, err := WriteCheckpoint(&buf, snap); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadCheckpoint(&buf); err == nil {
		t.Error("unsorted checkpoint mappings accepted")
	}
}

// TestReadCheckpointRejectsOverflowingMappings: a CRC-valid checkpoint
// whose mapping ends past MaxInt64, in LBA or in PBA space, is refused
// exactly as Record.Valid refuses such a journal record.
func TestReadCheckpointRejectsOverflowingMappings(t *testing.T) {
	for _, m := range []extmap.Mapping{
		{Lba: geom.Ext(math.MaxInt64-1, 4), Pba: 0},
		{Lba: geom.Ext(8, 4), Pba: math.MaxInt64 - 1},
	} {
		var buf bytes.Buffer
		if _, err := WriteCheckpoint(&buf, Snapshot{Mappings: []extmap.Mapping{m}}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadCheckpoint(&buf); err == nil {
			t.Errorf("checkpoint mapping %v accepted", m)
		}
	}
}

func TestLoadDirMissingEverything(t *testing.T) {
	if _, _, err := LoadDir(t.TempDir()); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestLoadDirCheckpointOnly(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if _, err := WriteCheckpoint(&buf, Snapshot{Generation: 3, Frontier: 9}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(CheckpointPath(dir), buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	snap, d, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Frontier != 9 || len(d.Records) != 0 {
		t.Errorf("snap=%+v records=%d", snap, len(d.Records))
	}
}

func TestLoadDirCorruptJournalHeaderWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	if _, err := WriteCheckpoint(&buf, Snapshot{Generation: 3, Frontier: 9}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(CheckpointPath(dir), buf.Bytes(), 0o666); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(JournalPath(dir), []byte("garbage"), 0o666); err != nil {
		t.Fatal(err)
	}
	snap, d, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || !d.Torn || len(d.Records) != 0 {
		t.Errorf("snap=%v torn=%v records=%d, want checkpoint + torn journal", snap, d.Torn, len(d.Records))
	}
}

func TestCheckpointLeavesNoTempFile(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.Checkpoint(Snapshot{Frontier: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, checkpointTmp)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp checkpoint left behind: %v", err)
	}
}
