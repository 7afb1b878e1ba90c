package repl

import (
	"bytes"
	"os"
	"testing"
	"time"

	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/server"
)

func TestEpochRoundTrip(t *testing.T) {
	root := t.TempDir()
	e, err := LoadEpoch(root)
	if err != nil || e != 0 {
		t.Fatalf("fresh root: epoch %d, err %v; want 0, nil", e, err)
	}
	if err := StoreEpoch(root, 7); err != nil {
		t.Fatal(err)
	}
	if e, err = LoadEpoch(root); err != nil || e != 7 {
		t.Fatalf("after store: epoch %d, err %v; want 7, nil", e, err)
	}
	// Overwrite must replace, not append.
	if err := StoreEpoch(root, 8); err != nil {
		t.Fatal(err)
	}
	if e, _ = LoadEpoch(root); e != 8 {
		t.Fatalf("after second store: epoch %d, want 8", e)
	}
}

func TestNewPrimaryInitializesEpoch(t *testing.T) {
	root := t.TempDir()
	p, err := NewPrimary(PrimaryConfig{Root: root, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Epoch() != 1 {
		t.Fatalf("first boot epoch %d, want 1", p.Epoch())
	}
	if e, _ := LoadEpoch(root); e != 1 {
		t.Fatalf("persisted epoch %d, want 1", e)
	}
}

// TestGateAckRelease checks the semi-sync gate: a write behind a sealed
// mark blocks until a follower ack covers it, then returns without
// counting as degraded.
func TestGateAckRelease(t *testing.T) {
	p, err := NewPrimary(PrimaryConfig{Root: t.TempDir(), SyncTimeout: 5 * time.Second, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.OnSeal("v")(1, 100, 3) // gen 1 sealed through byte 100, covering appends 1..3
	released := make(chan struct{})
	go func() {
		p.GateWrite("v", 3)
		close(released)
	}()
	select {
	case <-released:
		t.Fatal("gate released before any follower ack")
	case <-time.After(50 * time.Millisecond):
	}
	p.Ack("v", 1, 100)
	select {
	case <-released:
	case <-time.After(2 * time.Second):
		t.Fatal("gate not released by a covering ack")
	}
	if n := p.Degraded(); n != 0 {
		t.Fatalf("acked write counted as degraded (%d)", n)
	}
}

// TestGateDegradeLatch checks that one gate timeout latches the volume
// into asynchronous mode (later writes skip the wait but are counted),
// and that a covering ack restores synchronous gating.
func TestGateDegradeLatch(t *testing.T) {
	p, err := NewPrimary(PrimaryConfig{Root: t.TempDir(), SyncTimeout: 50 * time.Millisecond, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	p.OnSeal("v")(1, 100, 1)
	start := time.Now()
	p.GateWrite("v", 1) // no ack ever comes: times out, latches degraded
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("first gated write returned after %v, before the sync timeout", d)
	}
	if n := p.Degraded(); n != 1 {
		t.Fatalf("degraded count %d after timeout, want 1", n)
	}
	start = time.Now()
	p.GateWrite("v", 1) // latched: must not wait again
	if d := time.Since(start); d > 20*time.Millisecond {
		t.Fatalf("degraded-mode write still waited %v", d)
	}
	if n := p.Degraded(); n != 2 {
		t.Fatalf("degraded count %d, want 2", n)
	}

	// A follower ack covering the sealed frontier clears the latch.
	p.Ack("v", 1, 100)
	p.OnSeal("v")(1, 200, 5)
	start = time.Now()
	p.GateWrite("v", 5) // synchronous again: waits out a fresh timeout
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("post-recovery write returned after %v; latch did not clear", d)
	}
	if n := p.Degraded(); n != 3 {
		t.Fatalf("degraded count %d, want 3", n)
	}
}

func TestFencedPrimaryRefusesPromote(t *testing.T) {
	p, err := NewPrimary(PrimaryConfig{Root: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if info, err := p.Promote(); err != nil || info.Role != "primary" {
		t.Fatalf("promote on serving primary: %v / %v; want idempotent success", info, err)
	}
	p.mu.Lock()
	p.fenced = true
	p.mu.Unlock()
	if p.AcceptingData() {
		t.Fatal("fenced primary still accepting data")
	}
	if _, err := p.Promote(); err == nil {
		t.Fatal("fenced ex-primary accepted a promotion; its unreplicated tail could split-brain")
	}
}

// seedJournal writes n sealed records into dir and returns the sealed
// file contents.
func seedJournal(t *testing.T, dir string, n int) []byte {
	t.Helper()
	l, err := journal.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := journal.Record{Kind: journal.RecWrite, Lba: geom.Ext(geom.Sector(i*8), 8), Pba: geom.Sector(i * 8)}
		if err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(journal.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestShipApplyRoundTrip ships a sealed journal from one directory and
// applies it in another: the replica must be byte-identical and pass
// full verification.
func TestShipApplyRoundTrip(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	raw := seedJournal(t, src, 10)

	chunk, err := journal.ShipFrom(src, 0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Kind != journal.ShipSegments {
		t.Fatalf("ship kind %d, want segments (%d)", chunk.Kind, journal.ShipSegments)
	}
	f := &Follower{cfg: FollowerConfig{Logf: t.Logf}}
	st, err := f.applySegments(dst, journal.ChunkState{}, chunk)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(journal.JournalPath(dst))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, raw) {
		t.Fatal("persisted replica differs from source journal")
	}
	if st.Gen != chunk.Gen || st.Offset != int64(len(raw)) {
		t.Fatalf("applied position (%d,%d), want (%d,%d)", st.Gen, st.Offset, chunk.Gen, len(raw))
	}
	if _, err := journal.VerifyDir(dst); err != nil {
		t.Fatalf("replica does not verify: %v", err)
	}
}

// TestApplySegmentsRejectsCorrupt flips single bytes across a shipped
// chunk: every mutation must be rejected with no file created.
func TestApplySegmentsRejectsCorrupt(t *testing.T) {
	src := t.TempDir()
	seedJournal(t, src, 10)
	chunk, err := journal.ShipFrom(src, 0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	f := &Follower{cfg: FollowerConfig{Logf: func(string, ...any) {}}}
	for _, off := range []int{0, 30, len(chunk.Data) / 2, len(chunk.Data) - 5} {
		dst := t.TempDir()
		data := append([]byte(nil), chunk.Data...)
		data[off] ^= 0x01
		bad := chunk
		bad.Data = data
		if _, err := f.applySegments(dst, journal.ChunkState{}, bad); err == nil {
			t.Fatalf("corrupt byte at offset %d applied cleanly", off)
		}
		if _, err := os.Stat(journal.JournalPath(dst)); !os.IsNotExist(err) {
			t.Fatalf("corrupt chunk (offset %d) left a journal file behind", off)
		}
	}
}

// TestApplySegmentsRejectsMisaligned checks position discipline: a
// non-fresh chunk must match the local (gen, off) exactly.
func TestApplySegmentsRejectsMisaligned(t *testing.T) {
	src := t.TempDir()
	seedJournal(t, src, 10)
	chunk, err := journal.ShipFrom(src, 0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	chunk.Off = 40 // pretends to continue a prefix we don't have
	f := &Follower{cfg: FollowerConfig{Logf: func(string, ...any) {}}}
	if _, err := f.applySegments(t.TempDir(), journal.ChunkState{}, chunk); err == nil {
		t.Fatal("misaligned chunk applied cleanly")
	}
}

// TestCheckpointShipRoundTrip runs the catch-up path: a source past a
// checkpoint ships the checkpoint first, then the live generation's
// segments, and the replica must link them (anchor = checkpoint chain).
func TestCheckpointShipRoundTrip(t *testing.T) {
	src, dst := t.TempDir(), t.TempDir()
	l, err := journal.Open(src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := l.Append(journal.Record{Kind: journal.RecWrite, Lba: geom.Ext(geom.Sector(i*8), 8), Pba: geom.Sector(i * 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Checkpoint(journal.Snapshot{
		Frontier: 48, Written: 48,
		Mappings: []extmap.Mapping{{Lba: geom.Ext(0, 48), Pba: 0}},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 6; i < 9; i++ {
		if err := l.Append(journal.Record{Kind: journal.RecWrite, Lba: geom.Ext(geom.Sector(i*8), 8), Pba: geom.Sector(i * 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// An empty follower at (0,0): the source is past generation 1, so
	// catch-up starts with the checkpoint.
	chunk, err := journal.ShipFrom(src, 0, 0, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Kind != journal.ShipCheckpoint {
		t.Fatalf("first catch-up chunk kind %d, want checkpoint (%d)", chunk.Kind, journal.ShipCheckpoint)
	}
	f := &Follower{cfg: FollowerConfig{Logf: t.Logf}}
	st, err := f.applyCheckpoint(dst, chunk)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gen != chunk.Gen+1 || st.Offset != 0 {
		t.Fatalf("post-checkpoint position (%d,%d), want (%d,0)", st.Gen, st.Offset, chunk.Gen+1)
	}

	// Corrupted checkpoint ships must be rejected too.
	bad := chunk
	bad.Data = append([]byte(nil), chunk.Data...)
	bad.Data[len(bad.Data)/2] ^= 0x01
	if _, err := f.applyCheckpoint(t.TempDir(), bad); err == nil {
		t.Fatal("corrupt checkpoint applied cleanly")
	}

	// Then the live generation's segments, anchored in that checkpoint.
	chunk, err = journal.ShipFrom(src, st.Gen, st.Offset, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if chunk.Kind != journal.ShipSegments {
		t.Fatalf("second catch-up chunk kind %d, want segments (%d)", chunk.Kind, journal.ShipSegments)
	}
	if st, err = f.applySegments(dst, st, chunk); err != nil {
		t.Fatal(err)
	}
	if _, err := journal.VerifyDir(dst); err != nil {
		t.Fatalf("caught-up replica does not verify: %v", err)
	}
	srcRaw, _ := os.ReadFile(journal.JournalPath(src))
	dstRaw, _ := os.ReadFile(journal.JournalPath(dst))
	if !bytes.Equal(srcRaw, dstRaw) {
		t.Fatal("caught-up journal differs from source")
	}
	if st.Offset != int64(len(dstRaw)) {
		t.Fatalf("position %d bytes, file has %d", st.Offset, len(dstRaw))
	}
}

// TestScanLocalTruncatesTornTail checks crash recovery on the pull
// side: bytes past the last seal (a torn mid-append crash) are dropped
// so only verified sealed bytes are ever acked.
func TestScanLocalTruncatesTornTail(t *testing.T) {
	dir := t.TempDir()
	raw := seedJournal(t, dir, 5)
	path := journal.JournalPath(dir)
	fd, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fd.Write([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	fd.Close()

	f := &Follower{cfg: FollowerConfig{Logf: t.Logf}, pos: map[string]server.ReplPosition{}}
	st, err := f.scanLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Offset != int64(len(raw)) {
		t.Fatalf("scan frontier at %d bytes, want the %d-byte sealed prefix", st.Offset, len(raw))
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, raw) {
		t.Fatal("torn tail survived scanLocal")
	}
	if _, err := journal.VerifyDir(dir); err != nil {
		t.Fatalf("post-scan dir does not verify: %v", err)
	}
}

// TestScanLocalDiscardsStaleGeneration: a crash between checkpoint
// install and journal removal leaves a subsumed generation behind;
// scanning must discard it and resume from the checkpoint.
func TestScanLocalDiscardsStaleGeneration(t *testing.T) {
	dir := t.TempDir()
	l, err := journal.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(journal.Record{Kind: journal.RecWrite, Lba: geom.Ext(geom.Sector(i*8), 8), Pba: geom.Sector(i * 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	// Keep the pre-checkpoint journal bytes, checkpoint (which truncates
	// and rebirths), then put the stale generation back — the crash shape.
	stale, err := os.ReadFile(journal.JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(journal.Snapshot{Frontier: 32, Written: 32,
		Mappings: []extmap.Mapping{{Lba: geom.Ext(0, 32), Pba: 0}}}); err != nil {
		t.Fatal(err)
	}
	snapGen := l.Generation() - 1
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(journal.JournalPath(dir), stale, 0o644); err != nil {
		t.Fatal(err)
	}

	f := &Follower{cfg: FollowerConfig{Logf: t.Logf}, pos: map[string]server.ReplPosition{}}
	st, err := f.scanLocal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Gen != snapGen+1 || st.Offset != 0 {
		t.Fatalf("scan over stale generation resumed at (%d,%d), want (%d,0) with no journal", st.Gen, st.Offset, snapGen+1)
	}
	if _, err := os.Stat(journal.JournalPath(dir)); !os.IsNotExist(err) {
		t.Fatal("stale journal generation survived the scan")
	}
}
