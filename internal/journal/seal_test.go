package journal

import (
	"errors"
	"os"
	"path/filepath"
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
	if seals[1].Chain != chainLink(seals[0].Chain, seals[1].Root) {
		t.Error("seal 1 chain does not extend seal 0")
	}

	// A scan must reproduce exactly the same seal view.
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	d, err := scanJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Records) != 8 || d.Sealed != 6 || len(d.Seals) != 2 || d.Torn {
		t.Fatalf("scan: records=%d sealed=%d seals=%d torn=%v", len(d.Records), d.Sealed, len(d.Seals), d.Torn)
	}
	if d.ChainHead() != l.Chain() {
		t.Error("scan chain head differs from live log")
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
	chain := l.Chain()
	l.Close()

	// Reopen must rebuild the sealing state and keep the chain going.
	l2, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if err := l2.SetSegmentSize(5); err != nil {
		t.Fatal(err)
	}
	if l2.Chain() != chain || l2.SealedRecords() != 5 {
		t.Fatalf("reopen lost seal state: chain=%s sealed=%d", l2.Chain().Short(), l2.SealedRecords())
	}
	for i := int64(5); i < 10; i++ {
		if err := l2.Append(rec(RecWrite, i*4, 4, i*4)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l2.Seals()) != 2 {
		t.Fatalf("appended past segment size after reopen, %d seals", len(l2.Seals()))
	}
	if l2.Seals()[1].Chain != chainLink(chain, l2.Seals()[1].Root) {
		t.Error("post-reopen seal does not chain from pre-reopen head")
	}
}

func TestCheckpointAnchorsChain(t *testing.T) {
	dir := t.TempDir()
	l := sealedLog(t, dir, 2, 5) // 2 seals, 1 unsealed record
	defer l.Close()
	if err := l.Checkpoint(Snapshot{Frontier: 20, Written: 20}); err != nil {
		t.Fatal(err)
	}
	// The checkpoint force-seals, so its chain covers all 5 records.
	chain := l.Chain()
	if chain.IsZero() {
		t.Fatal("chain head still zero after sealing")
	}
	snap, err := ReadCheckpointFile(CheckpointPath(dir))
	if err != nil || snap == nil {
		t.Fatalf("checkpoint: %v %v", snap, err)
	}
	if snap.Chain != chain {
		t.Errorf("checkpoint chain %s, log chain %s", snap.Chain.Short(), chain.Short())
	}
	// The reborn journal anchors at the checkpoint chain.
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	_, _, anchor, err := unmarshalHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	if anchor != chain {
		t.Errorf("reborn anchor %s, want %s", anchor.Short(), chain.Short())
	}
	// And the chain keeps extending across the generation boundary.
	if err := l.Append(rec(RecWrite, 100, 4, 20)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(RecWrite, 104, 4, 24)); err != nil {
		t.Fatal(err)
	}
	if got := l.Seals()[0].Chain; got != l.Chain() || got == chain ||
		got != chainLink(chain, l.Seals()[0].Root) {
		t.Error("post-checkpoint seal does not chain from the checkpoint")
	}
}

func TestProve(t *testing.T) {
	dir := t.TempDir()
	l := sealedLog(t, dir, 4, 10) // seals cover 1..4 and 5..8; 9,10 unsealed
	defer l.Close()
	for seq := int64(1); seq <= 8; seq++ {
		p, err := l.Prove(seq)
		if err != nil {
			t.Fatalf("Prove(%d): %v", seq, err)
		}
		if err := p.Verify(); err != nil {
			t.Fatalf("Prove(%d).Verify: %v", seq, err)
		}
		wantSeg := int((seq - 1) / 4)
		if p.Segment != wantSeg || p.Generation != l.Generation() || p.Seq != seq {
			t.Errorf("Prove(%d) = seg %d gen %d", seq, p.Segment, p.Generation)
		}
		if p.Root != l.Seals()[wantSeg].Root || p.Chain != l.Seals()[wantSeg].Chain {
			t.Errorf("Prove(%d) root/chain do not match the seal", seq)
		}
		// A mutated proof must not verify.
		p.Leaf[0] ^= 1
		if p.Verify() == nil {
			t.Errorf("Prove(%d): mutated leaf verifies", seq)
		}
	}
	if _, err := l.Prove(9); !errors.Is(err, ErrUnsealed) {
		t.Errorf("Prove(9) on unsealed record: %v, want ErrUnsealed", err)
	}
	for _, seq := range []int64{0, -3, 11} {
		if _, err := l.Prove(seq); err == nil || errors.Is(err, ErrUnsealed) {
			t.Errorf("Prove(%d): %v, want out-of-range error", seq, err)
		}
	}
	// A smaller segment size seals the tail at the next append, which
	// makes 9, 10 and 11 provable.
	if err := l.SetSegmentSize(2); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(rec(RecWrite, 40, 4, 40)); err != nil {
		t.Fatal(err)
	}
	p, err := l.Prove(10)
	if err != nil || p.Verify() != nil {
		t.Fatalf("Prove(10) after the tail sealed: %v", err)
	}
	if p.Count != 3 {
		t.Errorf("tail segment count %d, want 3", p.Count)
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
