package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

// refWriteCheckpoint is the one-buffer checkpoint encoder the streamed
// one replaced: the whole file in one allocation and one Write. It is
// the byte-identity reference.
func refWriteCheckpoint(w io.Writer, snap Snapshot) (uint32, error) {
	buf := make([]byte, ckptFixedSize+mappingSize*len(snap.Mappings)+4)
	copy(buf[0:8], checkpointMagic)
	binary.LittleEndian.PutUint64(buf[8:16], snap.Generation)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(snap.Frontier))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(snap.Written))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(len(snap.Mappings)))
	off := ckptFixedSize
	for _, m := range snap.Mappings {
		binary.LittleEndian.PutUint64(buf[off:off+8], uint64(m.Lba.Start))
		binary.LittleEndian.PutUint64(buf[off+8:off+16], uint64(m.Lba.Count))
		binary.LittleEndian.PutUint64(buf[off+16:off+24], uint64(m.Pba))
		off += mappingSize
	}
	crc := crc32.ChecksumIEEE(buf[8:off])
	binary.LittleEndian.PutUint32(buf[off:], crc)
	_, err := w.Write(buf)
	return crc, err
}

// mapOf returns a map of n disjoint, non-contiguous mappings.
func mapOf(n int) *extmap.Map {
	m := extmap.New()
	for i := 0; i < n; i++ {
		m.Append(geom.Ext(int64(i)*16, 8), int64(n-i)*8)
	}
	return m
}

var (
	w36Once sync.Once
	w36     *extmap.Map
)

// w36Map is the log-structured extent map of w36 at scale 2.8 with the
// seed XOR 1 (≈ 59 k mappings): every write appended at the frontier,
// which starts past the trace's highest LBA, as a volume does.
func w36Map(tb testing.TB) *extmap.Map {
	w36Once.Do(func() {
		p, err := workload.ByName("w36")
		if err != nil {
			tb.Fatal(err)
		}
		p.Seed ^= 1
		recs := p.Generate(2.8)
		m, pba := extmap.NewCoalesced(), trace.MaxLBA(recs)
		for _, r := range recs {
			if r.Kind == disk.Write {
				m.InsertFunc(r.Extent, pba, nil)
				pba += r.Extent.Count
			}
		}
		w36 = m
	})
	return w36
}

func mappingsOf(m *extmap.Map) []extmap.Mapping {
	ms := make([]extmap.Mapping, 0, m.Len())
	m.Walk(func(x extmap.Mapping) bool {
		ms = append(ms, x)
		return true
	})
	return ms
}

// checkpointSizes are the map sizes the streamed encoder is checked at:
// empty, one mapping, either side of a full buffer of mappings, of the
// first buffer (which also holds the header) and of two buffers, and
// the w36 map.
func checkpointSizes(tb testing.TB) map[string]*extmap.Map {
	per, first := ckptChunk/mappingSize, (ckptChunk-ckptFixedSize)/mappingSize
	ms := map[string]*extmap.Map{"w36": w36Map(tb)}
	for _, n := range []int{0, 1, first, first + 1, per - 1, per, per + 1, 2*per - 1, 2 * per} {
		ms[strconv.Itoa(n)] = mapOf(n)
	}
	return ms
}

// TestCheckpointStreamMatchesReference: both Log entries and both
// encoders write the reference encoder's bytes and CRC, the reborn
// journal carries that CRC, and readCheckpoint returns the map.
func TestCheckpointStreamMatchesReference(t *testing.T) {
	if w36Map(t).Len() < 50000 {
		t.Fatalf("w36 map has %d mappings, want ≈ 59 k", w36Map(t).Len())
	}
	t.Logf("w36 map: %d mappings", w36Map(t).Len())
	for name, m := range checkpointSizes(t) {
		snap := Snapshot{Generation: 1, Frontier: 1 << 40, Written: 12345, Mappings: mappingsOf(m)}
		var ref bytes.Buffer
		wantCRC, err := refWriteCheckpoint(&ref, snap)
		if err != nil {
			t.Fatal(err)
		}
		var streamed, adapted bytes.Buffer
		crc1, err1 := writeCheckpoint(&streamed, 1, snap.Frontier, snap.Written, m.Len(), m.Walk)
		crc2, err2 := WriteCheckpoint(&adapted, snap)
		if err1 != nil || err2 != nil {
			t.Fatalf("%d mappings: %v, %v", m.Len(), err1, err2)
		}
		if !bytes.Equal(streamed.Bytes(), ref.Bytes()) || !bytes.Equal(adapted.Bytes(), ref.Bytes()) ||
			crc1 != wantCRC || crc2 != wantCRC {
			t.Fatalf("%q (%d mappings): encoders differ from the reference", name, m.Len())
		}
		for _, entry := range []func(*Log) error{
			func(l *Log) error { return l.CheckpointMap(snap.Frontier, snap.Written, m) },
			func(l *Log) error { return l.Checkpoint(snap) },
		} {
			dir := t.TempDir()
			l, err := Open(dir, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := entry(l); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(CheckpointPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref.Bytes()) {
				t.Fatalf("%d mappings: checkpoint file differs from the reference", m.Len())
			}
			raw, err := os.ReadFile(JournalPath(dir))
			if err != nil {
				t.Fatal(err)
			}
			if gen, frontier, ckptCRC, err := unmarshalHeader(raw); err != nil || gen != 2 ||
				frontier != snap.Frontier || ckptCRC != wantCRC {
				t.Fatalf("reborn header gen=%d frontier=%d crc=%#x err=%v, want 2, %d, %#x",
					gen, frontier, ckptCRC, err, snap.Frontier, wantCRC)
			}
		}
		back, crc, err := readCheckpoint(bytes.NewReader(ref.Bytes()), int64(ref.Len()))
		if err != nil || crc != wantCRC || back.Generation != 1 || back.Frontier != snap.Frontier ||
			back.Written != snap.Written || len(back.Mappings) != m.Len() {
			t.Fatalf("%d mappings: round trip %v crc=%#x", m.Len(), err, crc)
		}
		for i, x := range back.Mappings {
			if x != snap.Mappings[i] {
				t.Fatalf("mapping %d read back as %v, want %v", i, x, snap.Mappings[i])
			}
		}
	}
}

// writeSizes records the length of every Write.
type writeSizes []int

func (w *writeSizes) Write(p []byte) (int, error) {
	*w = append(*w, len(p))
	return len(p), nil
}

// TestCheckpointChunks: every Write but the last carries a full buffer —
// no more than ckptChunk bytes, with no room for one more mapping — and
// the last carries the rest and the CRC.
func TestCheckpointChunks(t *testing.T) {
	for _, m := range checkpointSizes(t) {
		var ws writeSizes
		if _, err := writeCheckpoint(&ws, 1, 0, 0, m.Len(), m.Walk); err != nil {
			t.Fatal(err)
		}
		total := 0
		for i, n := range ws {
			total += n
			if i < len(ws)-1 && (n > ckptChunk || n+mappingSize <= ckptChunk) {
				t.Errorf("%d mappings: write %d of %d carries %d bytes, want a full %d-byte buffer",
					m.Len(), i, len(ws), n, ckptChunk)
			}
		}
		if want := ckptFixedSize + mappingSize*m.Len() + 4; total != want || ws[len(ws)-1] > ckptChunk+4 {
			t.Errorf("%d mappings: writes %v, want %d bytes in total", m.Len(), ws, want)
		}
	}
}

// failOn fails its k-th Write.
type failOn struct {
	w    io.Writer
	k, n int
}

var errInjected = errors.New("injected write failure")

func (f *failOn) Write(p []byte) (int, error) {
	if f.n++; f.n == f.k {
		return 0, errInjected
	}
	return f.w.Write(p)
}

// TestCheckpointWriteFailure: a checkpoint whose k-th Write fails
// returns that error and leaves the checkpoint and the journal as they
// were: no rename and no rebirth.
func TestCheckpointWriteFailure(t *testing.T) {
	m := mapOf(5 * ckptChunk / mappingSize / 2) // three Writes
	for k := 1; k <= 3; k++ {
		dir := t.TempDir()
		l, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.CheckpointMap(7, 7, mapOf(3)); err != nil {
			t.Fatal(err)
		}
		if err := l.Append(rec(RecWrite, 0, 4, 7)); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		ckpt, _ := os.ReadFile(CheckpointPath(dir))
		wal, _ := os.ReadFile(JournalPath(dir))
		err = l.checkpoint(11, func(w io.Writer) (uint32, error) {
			return writeCheckpoint(&failOn{w: w, k: k}, l.generation, 11, 11, m.Len(), m.Walk)
		})
		if !errors.Is(err, errInjected) {
			t.Fatalf("write %d failed: Checkpoint returned %v", k, err)
		}
		if l.generation != 2 || l.SinceCheckpoint() != 1 {
			t.Errorf("write %d failed: generation %d, %d records since checkpoint",
				k, l.generation, l.SinceCheckpoint())
		}
		l.Close()
		ckpt2, _ := os.ReadFile(CheckpointPath(dir))
		wal2, _ := os.ReadFile(JournalPath(dir))
		if !bytes.Equal(ckpt, ckpt2) || !bytes.Equal(wal, wal2) {
			t.Errorf("write %d failed: checkpoint or journal changed", k)
		}
	}
}

// TestCheckpointWalkCount: a walk that yields other than the n mappings
// the header promises is an error.
func TestCheckpointWalkCount(t *testing.T) {
	m := mapOf(ckptChunk/mappingSize + 3)
	for _, n := range []int{m.Len() - 1, m.Len() + 1} {
		if _, err := writeCheckpoint(io.Discard, 1, 0, 0, n, m.Walk); err == nil {
			t.Errorf("walk of %d mappings accepted for a count of %d", m.Len(), n)
		}
	}
}

// TestReadCheckpointHugeCount: a header claiming maxCkptMappings over a
// one-mapping body fails reading the body without reserving memory for
// the claimed count.
func TestReadCheckpointHugeCount(t *testing.T) {
	var buf bytes.Buffer
	if _, err := refWriteCheckpoint(&buf, Snapshot{Mappings: []extmap.Mapping{{Lba: geom.Ext(0, 8)}}}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:ckptFixedSize+mappingSize]
	binary.LittleEndian.PutUint64(raw[32:40], maxCkptMappings)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readCheckpoint(bytes.NewReader(raw), int64(len(raw)))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "reading checkpoint body") {
		t.Errorf("err = %v, want a body read error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("rejecting the checkpoint allocated %d B, want < 1 MiB", got)
	}
}

// TestReadCheckpointFileReservesOnce: a checkpoint file's mappings are
// reserved once, sized from the file, so a 59 k-mapping checkpoint (the
// durable-write benchmark volume's size) loads with one Mappings
// allocation rather than one per doubling.
func TestReadCheckpointFileReservesOnce(t *testing.T) {
	const n = 59_000
	path := filepath.Join(t.TempDir(), CheckpointFile)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCheckpoint(f, Snapshot{Mappings: mappingsOf(mapOf(n))}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var snap *Snapshot
	allocs := testing.AllocsPerRun(3, func() {
		if snap, err = ReadCheckpointFile(path); err != nil {
			t.Fatal(err)
		}
	})
	if len(snap.Mappings) != n || cap(snap.Mappings) != n {
		t.Errorf("%d mappings in a slice of capacity %d, want %d in one reservation", len(snap.Mappings), cap(snap.Mappings), n)
	}
	// 7 with go1.24 on linux: opening and stating the file, the read
	// buffer, the snapshot and one Mappings slice.
	if allocs > 8 {
		t.Errorf("loading the checkpoint allocated %.0f times, want <= 8", allocs)
	}
}

// TestReadCheckpointErrorPrecedence: a CRC mismatch wins over a field
// error, negative counters win over a bad mapping, and a bad mapping in
// a later buffer is found.
func TestReadCheckpointErrorPrecedence(t *testing.T) {
	ms := mappingsOf(mapOf(2*ckptChunk/mappingSize + 5))
	late := len(ms) - 3
	ms[late].Lba.Start = ms[late-1].Lba.Start // overlaps its predecessor
	encode := func(frontier int64) []byte {
		var buf bytes.Buffer
		if _, err := refWriteCheckpoint(&buf, Snapshot{Frontier: frontier, Mappings: ms}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	check := func(raw []byte, want string) {
		t.Helper()
		if _, _, err := readCheckpoint(bytes.NewReader(raw), int64(len(raw))); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("err = %v, want %q", err, want)
		}
	}
	check(encode(0), "mapping "+strconv.Itoa(late)+" invalid or out of order")
	check(encode(-1), "negative checkpoint counters")
	raw := encode(0)
	raw[len(raw)-1] ^= 1
	check(raw, "checksum mismatch")
}

// TestCheckpointAllocs pins the streamed checkpoint's memory: one
// Log.CheckpointMap allocates the same bytes, within 4 KiB, for a 6 k-
// and a 60 k-mapping map, and less than 128 KiB.
func TestCheckpointAllocs(t *testing.T) {
	l, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	perCheckpoint := func(m *extmap.Map) int64 {
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if err := l.CheckpointMap(1<<40, 1<<40, m); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	small, large := perCheckpoint(mapOf(6000)), perCheckpoint(mapOf(60000))
	t.Logf("one checkpoint allocates %d B at 6 k and %d B at 60 k mappings", small, large)
	if d := large - small; d > 4<<10 || d < -4<<10 || large >= 128<<10 {
		t.Errorf("one checkpoint allocates %d B at 6 k and %d B at 60 k mappings, want equal within 4 KiB and < 128 KiB",
			small, large)
	}
}
