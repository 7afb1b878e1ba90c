package journal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"smrseek/internal/extmap"
	"smrseek/internal/geom"
)

// buildSealedPair populates dir with a realistic checkpoint+journal
// pair: generation 1 is sealed and checkpointed (so generation 2's
// header carries the checkpoint's CRC), then
// generation 2 is filled with nSeals fully-sealed segments of 2 records
// each. Returns the live log (caller closes).
func buildSealedPair(t testing.TB, dir string, nSeals int) *Log {
	t.Helper()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetSegmentSize(2); err != nil {
		t.Fatal(err)
	}
	var pba int64
	for i := 0; i < 4; i++ {
		if err := l.Append(rec(RecWrite, pba, 4, pba)); err != nil {
			t.Fatal(err)
		}
		pba += 4
	}
	snap := Snapshot{
		Frontier: pba, Written: pba,
		Mappings: []extmap.Mapping{{Lba: geom.Ext(0, pba), Pba: 0}},
	}
	if err := l.Checkpoint(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*nSeals; i++ {
		if err := l.Append(rec(RecWrite, pba, 4, pba)); err != nil {
			t.Fatal(err)
		}
		pba += 4
	}
	if l.SealedRecords() != int64(2*nSeals) {
		t.Fatalf("sealed %d, want %d", l.SealedRecords(), 2*nSeals)
	}
	return l
}

// writePair materializes a (journal, checkpoint) byte pair in a fresh
// directory for VerifyDir.
func writePair(t testing.TB, jraw, craw []byte) string {
	t.Helper()
	dir := t.TempDir()
	if jraw != nil {
		if err := os.WriteFile(JournalPath(dir), jraw, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	if craw != nil {
		if err := os.WriteFile(CheckpointPath(dir), craw, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func mutate(raw []byte, i int, xor byte) []byte {
	mut := append([]byte(nil), raw...)
	mut[i] ^= xor
	return mut
}

// TestCorruptionMatrixJournal flips every byte of a sealed journal, one
// at a time, and asserts the damage-detection contract: damage at or
// before the last seal is detected as ErrCorrupt; damage inside the
// final seal frame may instead degrade to a torn tail (it is
// indistinguishable from a crash mid-seal) but must preserve every
// record; nothing may ever verify clean and whole.
func TestCorruptionMatrixJournal(t *testing.T) {
	dir := t.TempDir()
	l := buildSealedPair(t, dir, 3) // gen 2: 6 records, 3 seals, no tail
	seals := l.Seals()
	const totalRecords = 6
	lastSealStart := seals[len(seals)-1].Offset
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	jraw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	craw, err := os.ReadFile(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(jraw)) != lastSealStart+sealFrameSize {
		t.Fatalf("journal %d bytes, want last seal [%d,%d) at the end",
			len(jraw), lastSealStart, lastSealStart+sealFrameSize)
	}

	// Sanity: the pristine pair verifies whole.
	if a, err := VerifyDir(writePair(t, jraw, craw)); err != nil ||
		a.SealedRecords != totalRecords || a.TailTorn || len(a.Segments) != 3 {
		t.Fatalf("pristine pair: %+v, %v", a, err)
	}

	for i := range jraw {
		mdir := writePair(t, mutate(jraw, i, 0xff), craw)
		a, err := VerifyDir(mdir)
		if int64(i) < lastSealStart {
			// Sealed region (header included): must fail loudly, with the
			// damaged file named and ErrCorrupt matchable.
			var ce *CorruptError
			if !errors.As(err, &ce) || !errors.Is(err, ErrCorrupt) {
				t.Fatalf("flip at %d (sealed region): err=%v, want CorruptError", i, err)
			}
			if ce.File != JournalFile {
				t.Fatalf("flip at %d: blamed %s, want %s", i, ce.File, JournalFile)
			}
			// Recovery must refuse too: LoadDir surfaces the same damage.
			if _, _, lerr := LoadDir(mdir); !errors.Is(lerr, ErrCorrupt) {
				t.Fatalf("flip at %d: LoadDir=%v, want ErrCorrupt", i, lerr)
			}
		} else {
			// Final seal frame: equivalent to a crash mid-seal. Either the
			// flip is still caught as corruption (e.g. a CRC-valid-but-
			// wrong seal is impossible from one flip, but a length-field
			// flip can resync oddly), or it degrades to a torn tail — in
			// which case every record must survive as the unsealed tail.
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("flip at %d (final seal): err=%v, want nil or ErrCorrupt", i, err)
				}
				continue
			}
			if !a.TailTorn {
				t.Fatalf("flip at %d (final seal): verified clean and whole: %+v", i, a)
			}
			if a.SealedRecords+a.TailRecords != totalRecords {
				t.Fatalf("flip at %d: %d sealed + %d tail records, want %d preserved",
					i, a.SealedRecords, a.TailRecords, totalRecords)
			}
			if len(a.Segments) != 2 {
				t.Fatalf("flip at %d: %d verified segments, want 2", i, len(a.Segments))
			}
		}
	}
}

// TestCorruptionMatrixCheckpoint flips every byte of the checkpoint:
// all of it is sealed state (magic + CRC-covered body), so every flip
// must fail verification.
func TestCorruptionMatrixCheckpoint(t *testing.T) {
	dir := t.TempDir()
	l := buildSealedPair(t, dir, 2)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	jraw, _ := os.ReadFile(JournalPath(dir))
	craw, err := os.ReadFile(CheckpointPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := range craw {
		_, err := VerifyDir(writePair(t, jraw, mutate(craw, i, 0xff)))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("checkpoint flip at %d: err=%v, want ErrCorrupt", i, err)
		}
	}
	// Truncations of the checkpoint must fail as well (the "silently
	// truncated checkpoint swap" this PR exists to catch).
	for _, n := range []int{0, 8, ckptFixedSize, len(craw) - 1} {
		if _, err := VerifyDir(writePair(t, jraw, craw[:n])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("checkpoint truncated to %d: err=%v, want ErrCorrupt", n, err)
		}
	}
	// Deleting the checkpoint breaks the pairing: the journal header
	// names a checkpoint CRC that no longer exists anywhere.
	if _, err := VerifyDir(writePair(t, jraw, nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("missing checkpoint: err=%v, want ErrCorrupt (dangling checkpoint CRC)", err)
	}
	// Swapping in a foreign checkpoint breaks it too.
	var buf writerBuf
	if _, err := WriteCheckpoint(&buf, Snapshot{Generation: 1, Frontier: 16, Written: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := VerifyDir(writePair(t, jraw, buf.b)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("foreign checkpoint: err=%v, want ErrCorrupt (checkpoint CRC mismatch)", err)
	}
}

type writerBuf struct{ b []byte }

func (w *writerBuf) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// TestCorruptionMatrixJournalTruncation cuts the sealed journal at
// every byte length. A cut exactly at a frame boundary is
// indistinguishable from a journal that simply stopped there — it may
// verify clean, but only with the audit honestly reporting the reduced
// coverage (that residual window is documented in DESIGN.md §13). A
// cut anywhere else must read as torn or corrupt, never clean.
func TestCorruptionMatrixJournalTruncation(t *testing.T) {
	dir := t.TempDir()
	l := buildSealedPair(t, dir, 2)
	l.Close()
	jraw, _ := os.ReadFile(JournalPath(dir))
	craw, _ := os.ReadFile(CheckpointPath(dir))

	// Frame boundaries of gen 2's layout (2 recs, seal, 2 recs, seal)
	// and the (sealed, tail) counts a clean parse must report there.
	type exp struct{ sealed, tail int64 }
	boundaries := map[int]exp{headerSize: {0, 0}}
	off, recs, sealed := headerSize, int64(0), int64(0)
	for _, isSeal := range []bool{false, false, true, false, false, true} {
		if isSeal {
			off += sealFrameSize
			sealed = recs
		} else {
			off += frameSize
			recs++
		}
		boundaries[off] = exp{sealed, recs - sealed}
	}
	if off != len(jraw) {
		t.Fatalf("layout walk ended at %d, file is %d bytes", off, len(jraw))
	}

	for n := headerSize; n < len(jraw); n++ {
		a, err := VerifyDir(writePair(t, jraw[:n], craw))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("cut at %d: %v", n, err)
			}
			continue
		}
		if a.TailTorn {
			continue // mid-frame cut read as a torn tail: prefix preserved
		}
		want, ok := boundaries[n]
		if !ok {
			t.Fatalf("mid-frame cut at %d verified clean: %+v", n, a)
		}
		if a.SealedRecords != want.sealed || a.TailRecords != want.tail {
			t.Fatalf("cut at %d: sealed=%d tail=%d, want %d/%d",
				n, a.SealedRecords, a.TailRecords, want.sealed, want.tail)
		}
	}
}

// TestCrashThenCorruption layers the two failure modes: a log torn by
// an injected crash must still recover (torn is not corrupt), and a
// byte flip inside its sealed prefix must still be detected (corrupt is
// not torn) even with the crash residue present.
func TestCrashThenCorruption(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.SetSegmentSize(2); err != nil {
		t.Fatal(err)
	}
	l.CrashAfter(4, 10) // records 1-3 land (seal after 2), append 4 tears
	var pba int64
	for i := 0; i < 4; i++ {
		if aerr := l.Append(rec(RecWrite, pba, 4, pba)); aerr != nil {
			if !errors.Is(aerr, ErrCrashed) {
				t.Fatal(aerr)
			}
			break
		}
		pba += 4
	}
	seal0 := l.Seals()[0]
	l.Close()
	jraw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}

	// The torn pair verifies: crash residue is reported, not failed.
	a, err := VerifyDir(dir)
	if err != nil || !a.TailTorn || a.SealedRecords != 2 || a.TailRecords != 1 {
		t.Fatalf("torn pair: %+v, %v", a, err)
	}

	sealFrameEnd := seal0.Offset + sealFrameSize
	for i := 0; int64(i) < sealFrameEnd; i++ {
		_, err := VerifyDir(writePair(t, mutate(jraw, i, 0x10), nil))
		if int64(i) < seal0.Offset {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("crash+flip at %d (sealed region): %v, want ErrCorrupt", i, err)
			}
		} else if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("crash+flip at %d (seal frame): %v", i, err)
		}
	}
	// Flips past the seal land in crash residue: still just torn.
	for i := sealFrameEnd; i < int64(len(jraw)); i++ {
		a, err := VerifyDir(writePair(t, mutate(jraw, int(i), 0x10), nil))
		if err != nil || !a.TailTorn || a.SealedRecords != 2 {
			t.Fatalf("crash+flip at %d (residue): %+v, %v", i, a, err)
		}
	}
}

// TestVerifyDirStaleJournal: a stale generation left by a crash between
// checkpoint rename and truncation is subsumed — verification must not
// fail on it, even when the stale bytes are damaged.
func TestVerifyDirStaleJournal(t *testing.T) {
	dir := t.TempDir()
	l := buildSealedPair(t, dir, 1)
	ckptGen := l.Generation() - 1
	l.Close()
	craw, _ := os.ReadFile(CheckpointPath(dir))
	stale := marshalHeader(ckptGen, 0, 0)
	stale = append(stale, MarshalRecord(rec(RecWrite, 0, 4, 0))...)
	stale[len(stale)-3] ^= 0xff // damage inside the stale content
	a, err := VerifyDir(writePair(t, stale, craw))
	if err != nil || !a.Stale {
		t.Fatalf("stale journal: %+v, %v", a, err)
	}
}

// TestVerifyDirFreshJournalAnchor: with no checkpoint the journal
// header's checkpoint CRC must be 0; any other value names a checkpoint
// that does not exist.
func TestVerifyDirFreshJournalAnchor(t *testing.T) {
	fresh := marshalHeader(1, 0, 0)
	if a, err := VerifyDir(writePair(t, fresh, nil)); err != nil || a.Stale {
		t.Fatalf("fresh journal: %+v, %v", a, err)
	}
	bogus := marshalHeader(1, 0, 0xdeadbeef)
	if _, err := VerifyDir(writePair(t, bogus, nil)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dangling checkpoint CRC: %v, want ErrCorrupt", err)
	}
}

// TestVerifyDirGenerationGap: the live journal must succeed the
// checkpoint generation exactly; a gap means a whole generation of
// history is missing.
func TestVerifyDirGenerationGap(t *testing.T) {
	dir := t.TempDir()
	l := buildSealedPair(t, dir, 1)
	gen := l.Generation()
	l.Close()
	jraw, _ := os.ReadFile(JournalPath(dir))
	_, _, ckptCRC, err := unmarshalHeader(jraw)
	if err != nil {
		t.Fatal(err)
	}
	craw, _ := os.ReadFile(CheckpointPath(dir))
	skipped := marshalHeader(gen+1, 16, ckptCRC)
	if _, err := VerifyDir(writePair(t, skipped, craw)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("generation gap: %v, want ErrCorrupt", err)
	}
}

// FuzzVerifyJournal: no single-byte mutation of a sealed pair may ever
// verify clean and whole. The journal side may legally degrade to a
// torn tail (crash equivalence, final seal frame only), but then the
// audit must say so and must have lost sealed coverage; the checkpoint
// side must always hard-fail.
func FuzzVerifyJournal(f *testing.F) {
	dir := f.TempDir()
	l := buildSealedPair(f, dir, 3)
	baseSealed := l.SealedRecords()
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	jraw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	craw, err := os.ReadFile(CheckpointPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(0), byte(0xff), false)
	f.Add(uint32(70), byte(0x01), false)
	f.Add(uint32(40), byte(0x80), true)
	f.Add(uint32(len(jraw)-1), byte(0x04), false)
	f.Fuzz(func(t *testing.T, pos uint32, xor byte, hitCheckpoint bool) {
		if xor == 0 {
			return
		}
		jmut, cmut := jraw, craw
		if hitCheckpoint {
			cmut = mutate(craw, int(pos)%len(craw), xor)
		} else {
			jmut = mutate(jraw, int(pos)%len(jraw), xor)
		}
		a, err := VerifyDir(writePair(t, jmut, cmut))
		if hitCheckpoint {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("checkpoint mutation at %d xor %#x verified: %v", pos, xor, err)
			}
			return
		}
		if err == nil && (!a.TailTorn || a.SealedRecords >= baseSealed) {
			t.Fatalf("journal mutation at %d xor %#x verified clean and whole: %+v",
				int(pos)%len(jraw), xor, a)
		}
	})
}

// TestVerifyDirAllocs pins what a directory audit allocates on a
// 20 k-record journal of 78 sealed segments: the checkpoint and journal
// reads, one record slice sized from the file, and the Audit's segment
// list (19 allocations on this input), never one per record. The bound
// dates from an earlier walker that took about two per segment.
func TestVerifyDirAllocs(t *testing.T) {
	const nRecs, seg = 20000, 256
	dir := sealedBenchDir(t, nRecs, seg)
	var segs int
	allocs := testing.AllocsPerRun(3, func() {
		a, err := VerifyDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		segs = len(a.Segments)
	})
	bound := float64(2*segs + 64)
	t.Logf("%d records, %d segments: %.0f allocs per VerifyDir(dir) (bound %.0f)", nRecs, segs, allocs, bound)
	if allocs > bound {
		t.Errorf("VerifyDir(dir) allocated %.0f times, want <= %.0f", allocs, bound)
	}
}

// v02Journal returns a whole journal in the retired v02 format: its
// 60-byte header (a 32-byte seal-chain anchor in place of the
// checkpoint CRC) and one record frame.
func v02Journal(gen uint64) []byte {
	buf := make([]byte, 60)
	copy(buf, "SMRWAL02")
	binary.LittleEndian.PutUint64(buf[8:16], gen)
	binary.LittleEndian.PutUint32(buf[56:60], crc32.ChecksumIEEE(buf[8:56]))
	return append(buf, MarshalRecord(rec(RecWrite, 0, 4, 0))...)
}

// v02Checkpoint returns an empty checkpoint in the retired v02 format,
// which carried a 32-byte chain head after the written counter: 72
// fixed bytes, no mappings, the trailing CRC.
func v02Checkpoint(gen uint64) []byte {
	buf := make([]byte, 76)
	copy(buf, "SMRCKP02")
	binary.LittleEndian.PutUint64(buf[8:16], gen)
	binary.LittleEndian.PutUint32(buf[72:76], crc32.ChecksumIEEE(buf[8:72]))
	return buf
}

// TestOldFormatRefused: a directory holding a v02 journal or a v02
// checkpoint is refused by every reader with an error naming the
// version — including a whole v02 journal beside a v03 checkpoint,
// which must not be mistaken for a header torn mid-rebirth and dropped.
func TestOldFormatRefused(t *testing.T) {
	var ckpt writerBuf
	if _, err := WriteCheckpoint(&ckpt, Snapshot{Generation: 1}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		jraw, craw []byte
		version    string
	}{
		{"v02 journal", v02Journal(1), nil, "SMRWAL02"},
		{"v02 checkpoint", nil, v02Checkpoint(1), "SMRCKP02"},
		{"v02 journal beside a v03 checkpoint", v02Journal(2), ckpt.b, "SMRWAL02"},
	}
	for _, c := range cases {
		dir := writePair(t, c.jraw, c.craw)
		_, _, lerr := LoadDir(dir)
		_, verr := VerifyDir(dir)
		_, oerr := Open(dir, 0)
		for reader, err := range map[string]error{"LoadDir": lerr, "VerifyDir": verr, "Open": oerr} {
			if err == nil || !strings.Contains(err.Error(), c.version) {
				t.Errorf("%s: %s = %v, want an error naming %s", c.name, reader, err, c.version)
			}
		}
	}
}

// TestSealCountCatchesDroppedFrame: a record frame cut out whole from a
// sealed segment leaves every remaining frame CRC-valid; the seal's
// record count is what catches it. A seal whose index skips is caught
// the same way.
func TestSealCountCatchesDroppedFrame(t *testing.T) {
	dir := t.TempDir()
	l := buildSealedPair(t, dir, 3)
	seals := l.Seals()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	jraw, _ := os.ReadFile(JournalPath(dir))
	craw, _ := os.ReadFile(CheckpointPath(dir))

	at := seals[0].Offset + sealFrameSize // segment 1's first record frame
	dropped := append(append([]byte(nil), jraw[:at]...), jraw[at+frameSize:]...)

	skipped := append([]byte(nil), jraw...)
	copy(skipped[seals[1].Offset:], appendSeal(nil, 7, seals[1].Count))

	for name, mut := range map[string][]byte{"dropped frame": dropped, "skipped seal index": skipped} {
		mdir := writePair(t, mut, craw)
		var ce *CorruptError
		if _, err := VerifyDir(mdir); !errors.As(err, &ce) || ce.Segment != 1 {
			t.Errorf("%s: VerifyDir = %v, want a CorruptError in segment 1", name, err)
		}
		if _, _, err := LoadDir(mdir); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: LoadDir = %v, want ErrCorrupt", name, err)
		}
	}
}
