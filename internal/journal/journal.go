// Package journal provides the crash-consistency machinery for the
// simulator's log-structured translation layer: a write-ahead log of
// every extent-map mutation plus periodic checkpoints of the full map,
// mirroring how real drive-managed SMR firmware (SMORE, and the
// log-structured stores it descends from) persists its layout metadata.
//
// The journal is an append-only file of CRC32-guarded, length-prefixed
// records. Each record describes one STL mutation — a host write, a
// defrag relocation, or an explicit frontier move — with enough
// information to replay it deterministically. A checkpoint serializes
// the entire extent map, frontier and written-sector counter; writing
// one truncates the journal, bounding replay time.
//
// Torn writes are a first-class concern: a crash can leave a partial
// record at the journal tail, and recovery must detect it (short frame
// or CRC mismatch), discard it, and stop cleanly — the write-ahead
// discipline guarantees the in-memory state never ran ahead of an
// acknowledged append, so a discarded torn record was never applied.
//
// Generations make the checkpoint-then-truncate pair atomic without a
// second fsync barrier: the journal header carries a generation number,
// a checkpoint records the generation it subsumes, and the journal is
// reborn with the next generation after each checkpoint. Recovery
// replays the journal only when its generation is newer than the
// checkpoint's, so a crash BETWEEN checkpoint rename and journal
// truncation cannot double-apply records.
//
// Every seal frame closes the records appended since the previous one
// and names how many they were. Seals are resync markers for damage
// classification: damage with an intact seal somewhere after it sits
// inside history the log had already moved past, so it is corruption;
// any other damage is a torn tail (see verify.go).
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"smrseek/internal/geom"
)

// RecordKind classifies a journaled STL mutation.
type RecordKind uint8

const (
	// RecWrite is a host write: Lba was mapped to Pba (the frontier at
	// append time), advancing the frontier by Lba.Count.
	RecWrite RecordKind = iota + 1
	// RecRelocate is a defrag write-back: same replay semantics as
	// RecWrite, kept distinct so recovery statistics can tell host
	// traffic from maintenance traffic.
	RecRelocate
	// RecFrontier is an explicit frontier move: the frontier becomes Pba
	// and the extent is ignored.
	RecFrontier
	// RecSeal is a segment seal frame — not a replayable mutation. It
	// closes the records appended since the previous seal with their
	// count. The Log emits seals itself; Append rejects the kind.
	RecSeal
)

// String names the kind.
func (k RecordKind) String() string {
	switch k {
	case RecWrite:
		return "write"
	case RecRelocate:
		return "relocate"
	case RecFrontier:
		return "frontier"
	case RecSeal:
		return "seal"
	}
	return "unknown"
}

// Record is one journaled STL mutation.
type Record struct {
	Kind RecordKind
	Lba  geom.Extent
	Pba  geom.Sector
}

// Valid reports whether the record's fields are replayable: a known
// mutation kind, non-negative addresses, a positive extent for write
// kinds, and no address-space overflow. A CRC-valid frame with invalid
// fields is corruption and stops replay just like a torn tail.
func (r Record) Valid() bool {
	switch r.Kind {
	case RecWrite, RecRelocate:
		return r.Lba.Start >= 0 && r.Lba.Count > 0 && r.Pba >= 0 &&
			r.Lba.Start <= math.MaxInt64-r.Lba.Count &&
			r.Pba <= math.MaxInt64-r.Lba.Count
	case RecFrontier:
		return r.Pba >= 0
	}
	return false
}

// On-disk framing. All integers are little-endian.
//
//	journal   := header frame*
//	header    := magic(8) generation(8) frontier(8) ckptCRC(4) crc32(4)  [32 bytes]
//	frame     := length(4) payload crc32(4)
//	payload   := record | seal                 (distinguished by length + kind)
//	record    := kind(1) lbaStart(8) lbaCount(8) pba(8)                  [25 bytes]
//	seal      := kind(1)=4 index(8) count(4)                             [13 bytes]
//
// ckptCRC is the trailing CRC of the checkpoint the journal was reborn
// after (0 when there was none): it pairs the journal with that one
// checkpoint. The header CRC covers generation, frontier and ckptCRC; a
// frame CRC covers its payload. The length field counts payload bytes
// only.
const (
	journalMagic    = "SMRWAL03"
	headerSize      = 8 + 8 + 8 + 4 + 4
	payloadSize     = 1 + 8 + 8 + 8
	frameSize       = 4 + payloadSize + 4
	sealPayloadSize = 1 + 8 + 4
	sealFrameSize   = 4 + sealPayloadSize + 4
	maxPayloadLen   = 1 << 20 // sanity bound: larger lengths mean a torn/corrupt frame
)

// DefaultSegmentSize is the record count a filled segment is sealed at
// when SetSegmentSize was not called.
const DefaultSegmentSize = 256

// ErrCrashed is returned by Append and Checkpoint after an injected
// crash point has fired: the log behaves like a device that lost power.
var ErrCrashed = errors.New("journal: crashed (injected crash point)")

// MarshalRecord encodes a record as one framed journal entry.
func MarshalRecord(r Record) []byte { return appendRecord(make([]byte, 0, frameSize), r) }

// appendRecord appends r's framed encoding to dst.
func appendRecord(dst []byte, r Record) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, payloadSize)
	p := len(dst)
	dst = append(dst, byte(r.Kind))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Lba.Start))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Lba.Count))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(r.Pba))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[p:]))
}

// unmarshalPayload decodes a CRC-validated payload. ok is false when the
// payload length or field values are not replayable.
func unmarshalPayload(p []byte) (Record, bool) {
	if len(p) != payloadSize {
		return Record{}, false
	}
	r := Record{
		Kind: RecordKind(p[0]),
		Lba: geom.Extent{
			Start: int64(binary.LittleEndian.Uint64(p[1:9])),
			Count: int64(binary.LittleEndian.Uint64(p[9:17])),
		},
		Pba: int64(binary.LittleEndian.Uint64(p[17:25])),
	}
	return r, r.Valid()
}

// Seal is one sealed segment: Count consecutive records closed by one
// seal frame.
type Seal struct {
	// Index is the seal's 0-based position within its journal generation.
	Index int `json:"segment"`
	// First is the 1-based sequence of the first record covered.
	First int64 `json:"first"`
	// Count is the number of records the seal covers (> 0).
	Count int `json:"count"`
	// Offset is the byte offset of the seal frame in the journal file.
	Offset int64 `json:"offset"`
}

// appendSeal appends one framed seal entry to dst.
func appendSeal(dst []byte, index, count int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, sealPayloadSize)
	p := len(dst)
	dst = append(dst, byte(RecSeal))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(index))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(count))
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[p:]))
}

// parseSealPayload decodes a CRC-validated seal payload.
func parseSealPayload(p []byte) (index int64, count int64, ok bool) {
	if len(p) != sealPayloadSize || p[0] != byte(RecSeal) {
		return 0, 0, false
	}
	index = int64(binary.LittleEndian.Uint64(p[1:9]))
	count = int64(binary.LittleEndian.Uint32(p[9:13]))
	return index, count, index >= 0 && count > 0
}

// marshalHeader encodes the journal file header.
func marshalHeader(generation uint64, frontier geom.Sector, ckptCRC uint32) []byte {
	buf := make([]byte, headerSize)
	copy(buf[0:8], journalMagic)
	binary.LittleEndian.PutUint64(buf[8:16], generation)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(frontier))
	binary.LittleEndian.PutUint32(buf[24:28], ckptCRC)
	binary.LittleEndian.PutUint32(buf[28:32], crc32.ChecksumIEEE(buf[8:28]))
	return buf
}

func unmarshalHeader(buf []byte) (generation uint64, frontier geom.Sector, ckptCRC uint32, err error) {
	if err := checkVersion(JournalFile, buf, journalMagic); err != nil {
		return 0, 0, 0, err
	}
	if len(buf) < headerSize {
		return 0, 0, 0, fmt.Errorf("journal: short header (%d bytes)", len(buf))
	}
	if string(buf[0:8]) != journalMagic {
		return 0, 0, 0, fmt.Errorf("journal: bad magic %q", buf[0:8])
	}
	if crc32.ChecksumIEEE(buf[8:28]) != binary.LittleEndian.Uint32(buf[28:32]) {
		return 0, 0, 0, fmt.Errorf("journal: header checksum mismatch")
	}
	generation = binary.LittleEndian.Uint64(buf[8:16])
	frontier = int64(binary.LittleEndian.Uint64(buf[16:24]))
	ckptCRC = binary.LittleEndian.Uint32(buf[24:28])
	if frontier < 0 {
		return 0, 0, 0, fmt.Errorf("journal: negative header frontier %d", frontier)
	}
	return generation, frontier, ckptCRC, nil
}

// errFormat marks a file written in a format version this build does
// not read. There is no migration: such a directory is refused.
var errFormat = errors.New("journal: unsupported format version")

// checkVersion refuses a file whose magic names another version of the
// same format: the name matches want, the two version digits do not.
func checkVersion(file string, buf []byte, want string) error {
	isDigit := func(b byte) bool { return '0' <= b && b <= '9' }
	if len(buf) >= 8 && string(buf[:6]) == want[:6] && isDigit(buf[6]) && isDigit(buf[7]) &&
		string(buf[:8]) != want {
		return fmt.Errorf("%w: %s is %s, this build reads only %s", errFormat, file, buf[:8], want)
	}
	return nil
}

// Data is the parsed content of one journal stream.
type Data struct {
	// Generation is the journal's generation number; records apply only
	// when it exceeds the checkpoint's generation.
	Generation uint64
	// InitFrontier is the frontier position recorded at journal birth,
	// used when no checkpoint is available.
	InitFrontier geom.Sector
	// Records are the complete, CRC-valid records in append order.
	Records []Record
	// Seals are the seals in order. Each one's index follows its
	// predecessor's and its count matches the records it closes —
	// ScanBytes fails with a CorruptError otherwise.
	Seals []Seal
	// Sealed is the number of leading Records covered by Seals.
	Sealed int64
	// Torn reports that the stream ended in a torn or corrupt record,
	// which was discarded. Everything in Records precedes it.
	Torn bool
}

// findSealFrom scans raw for an intact seal frame starting at or after
// offset from, returning its offset or -1. It is the resynchronization
// step of damage classification: the frame CRC plus the fixed seal
// length and kind make a false positive vanishingly unlikely, and a
// genuine seal past a damaged frame proves the damage sits inside the
// sealed region (seals are only ever appended after the records they
// cover).
func findSealFrom(raw []byte, from int64) int64 {
	if from < 0 {
		from = 0
	}
	for i := from; i+sealFrameSize <= int64(len(raw)); i++ {
		if binary.LittleEndian.Uint32(raw[i:]) != sealPayloadSize {
			continue
		}
		if raw[i+4] != byte(RecSeal) {
			continue
		}
		p := raw[i+4 : i+4+sealPayloadSize]
		if crc32.ChecksumIEEE(p) == binary.LittleEndian.Uint32(raw[i+4+sealPayloadSize:]) {
			return i
		}
	}
	return -1
}

// ScanBytes parses and checks raw journal file bytes in one sequential
// pass: the header, then every frame's length and CRC, every record's
// fields, and every seal's index and record count. A damaged frame
// followed by no further intact seal marks Data.Torn — the crash
// signature — and keeps the records before it; any other damage, or a
// CRC-valid seal that disagrees with the records it closes, is a
// *CorruptError (truncating there would silently drop acknowledged
// history). A damaged header is an error too: a *CorruptError when
// sealed content follows it, plain otherwise.
func ScanBytes(raw []byte) (Data, error) {
	var d Data
	gen, frontier, _, err := unmarshalHeader(raw)
	if err != nil {
		// A crash mid-rebirth (truncate done, header write torn) leaves a
		// SHORT file: nothing but partial header bytes. A damaged header
		// with sealed content after it is not that — it is damage to a
		// file that was whole.
		if !errors.Is(err, errFormat) && findSealFrom(raw, 0) >= 0 {
			return d, &CorruptError{File: JournalFile, Segment: 0, Offset: 0,
				Reason: "damaged header ahead of sealed content"}
		}
		return d, err
	}
	d.Generation, d.InitFrontier = gen, frontier
	// The file is already in memory, so its length bounds the record
	// count: one allocation, sized by bytes that exist.
	d.Records = make([]Record, 0, (len(raw)-headerSize)/frameSize)

	off, end := int64(headerSize), int64(len(raw))
	// damaged classifies a bad frame at offset at: if any intact seal
	// frame survives at or beyond the damage, acknowledged sealed
	// history lies past it and the journal is corrupt, not torn.
	damaged := func(at int64, reason string) (Data, error) {
		if findSealFrom(raw, at) >= 0 {
			return d, &CorruptError{
				File: JournalFile, Segment: len(d.Seals), Offset: at,
				Reason: reason + " (intact seal follows the damage)",
			}
		}
		d.Torn = true
		return d, nil
	}
	// sealBroken is for a CRC-valid seal frame whose content disagrees
	// with the records it covers: never a crash artifact, always corrupt.
	sealBroken := func(at int64, reason string) (Data, error) {
		return d, &CorruptError{File: JournalFile, Segment: len(d.Seals), Offset: at, Reason: reason}
	}

	for off < end {
		if end-off < 4 {
			return damaged(off, "partial length prefix")
		}
		plen := int64(binary.LittleEndian.Uint32(raw[off:]))
		if plen == 0 || plen > maxPayloadLen {
			return damaged(off, fmt.Sprintf("implausible frame length %d", plen))
		}
		next := off + 4 + plen + 4
		if next > end {
			return damaged(off, "partial frame")
		}
		payload := raw[off+4 : off+4+plen]
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(raw[off+4+plen:]) {
			return damaged(off, "frame checksum mismatch")
		}
		switch {
		case plen == payloadSize:
			rec, ok := unmarshalPayload(payload)
			if !ok {
				return damaged(off, "unreplayable record")
			}
			d.Records = append(d.Records, rec)
		case plen == sealPayloadSize && payload[0] == byte(RecSeal):
			idx, cnt, ok := parseSealPayload(payload)
			if !ok {
				return damaged(off, "malformed seal payload")
			}
			if int(idx) != len(d.Seals) {
				return sealBroken(off, fmt.Sprintf("seal index %d, want %d", idx, len(d.Seals)))
			}
			if pending := int64(len(d.Records)) - d.Sealed; cnt != pending {
				return sealBroken(off, fmt.Sprintf("seal covers %d records, %d are pending", cnt, pending))
			}
			d.Seals = append(d.Seals, Seal{Index: int(idx), First: d.Sealed + 1, Count: int(cnt), Offset: off})
			d.Sealed += cnt
		default:
			return damaged(off, fmt.Sprintf("unrecognized %d-byte frame", plen))
		}
		off = next
	}
	return d, nil
}

// File names inside a journal directory.
const (
	// JournalFile is the append-only write-ahead log.
	JournalFile = "journal.wal"
	// CheckpointFile is the most recent complete checkpoint.
	CheckpointFile = "checkpoint.ckpt"
	// checkpointTmp is the staging name; a checkpoint becomes visible
	// only via rename, so a crash mid-checkpoint leaves the old one.
	checkpointTmp = "checkpoint.tmp"
)

// JournalPath returns the journal file path inside dir.
func JournalPath(dir string) string { return filepath.Join(dir, JournalFile) }

// CheckpointPath returns the checkpoint file path inside dir.
func CheckpointPath(dir string) string { return filepath.Join(dir, CheckpointFile) }

// Failer injects append failures, modelling a faulty journal device. It
// is consulted before any bytes are written; a non-nil error fails the
// append with nothing persisted. seq is the 1-based sequence number the
// append would get.
type Failer func(seq int64, rec Record) error

// Log is an open journal directory: the write-ahead log file plus the
// checkpoint alongside it. It is not safe for concurrent use; each
// simulator owns one.
type Log struct {
	dir string
	f   *os.File

	generation uint64
	appends    int64  // acknowledged appends by this process
	sinceCkpt  int64  // records in the journal file since its header
	ckpts      int64  // checkpoints written by this process
	size       int64  // logical journal size: file bytes plus buf (for seal offsets)
	buf        []byte // frames appended since the last Flush
	ferr       error  // sticky Flush failure

	segSize int    // records per sealed segment
	sealed  int64  // records covered by seals
	seals   []Seal // seals in this generation

	failer     Failer
	crashAfter int64 // 1-based append seq that crashes; 0 = never
	tornBytes  int
	crashed    bool
}

// Open opens (or creates) the journal in dir, creating the directory as
// needed. A fresh journal is born with initFrontier in its header, a
// generation one past the checkpoint's (or 1) and the checkpoint's CRC
// (or 0). An existing journal is opened for append; its records and
// seals are scanned to validate the file, recount the checkpoint age
// and restore the sealing state. An existing torn tail is rejected —
// recover first, checkpoint, and the reborn journal is clean. A stale
// checkpoint.tmp left by a crash mid-checkpoint is removed.
func Open(dir string, initFrontier geom.Sector) (*Log, error) {
	if initFrontier < 0 {
		return nil, fmt.Errorf("journal: negative initial frontier %d", initFrontier)
	}
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	// A crash between checkpoint staging and rename leaves the partial
	// temp file behind; it is never read, but letting it rot alongside
	// real state invites confusion (and a full disk). Clear it.
	if err := os.Remove(filepath.Join(dir, checkpointTmp)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	l := &Log{dir: dir, segSize: DefaultSegmentSize}
	path := JournalPath(dir)
	if data, err := os.ReadFile(path); err == nil {
		d, err := ScanBytes(data)
		if err != nil {
			return nil, err
		}
		if d.Torn {
			return nil, fmt.Errorf("journal: %s has a torn tail; recover before appending: %w", path, ErrTornTail)
		}
		l.generation = d.Generation
		l.sinceCkpt = int64(len(d.Records))
		l.size = int64(len(data))
		l.seals = d.Seals
		l.sealed = d.Sealed
		l.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o666)
		if err != nil {
			return nil, err
		}
		return l, nil
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	gen := uint64(1)
	var ckptCRC uint32
	if snap, crc, err := readCheckpointFile(CheckpointPath(dir)); err == nil && snap != nil {
		gen = snap.Generation + 1
		ckptCRC = crc
	} else if err != nil {
		return nil, fmt.Errorf("journal: existing checkpoint unreadable: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(marshalHeader(gen, initFrontier, ckptCRC)); err != nil {
		f.Close()
		return nil, err
	}
	l.generation, l.f = gen, f
	l.size = headerSize
	return l, nil
}

// Dir returns the journal directory.
func (l *Log) Dir() string { return l.dir }

// Generation returns the journal's current generation number.
func (l *Log) Generation() uint64 { return l.generation }

// Appends returns the appends acknowledged by this process.
func (l *Log) Appends() int64 { return l.appends }

// SinceCheckpoint returns the records in the journal file beyond the
// last checkpoint — the replay work a crash right now would cost.
func (l *Log) SinceCheckpoint() int64 { return l.sinceCkpt }

// Checkpoints returns the checkpoints written by this process.
func (l *Log) Checkpoints() int64 { return l.ckpts }

// Crashed reports whether an injected crash point has fired.
func (l *Log) Crashed() bool { return l.crashed }

// SealedRecords returns how many records of the current generation are
// covered by seals; records past them await the next seal.
func (l *Log) SealedRecords() int64 { return l.sealed }

// Seals returns a copy of the current generation's seals.
func (l *Log) Seals() []Seal { return append([]Seal(nil), l.seals...) }

// SetSegmentSize sets how many records fill a segment before it is
// sealed automatically (default DefaultSegmentSize). Smaller segments
// put resync markers closer together, at the cost of one 21-byte seal
// frame per segment.
func (l *Log) SetSegmentSize(n int) error {
	if n <= 0 {
		return fmt.Errorf("journal: segment size %d, want > 0", n)
	}
	l.segSize = n
	return nil
}

// SetFailer installs an append fault hook (nil clears it).
func (l *Log) SetFailer(f Failer) { l.failer = f }

// CrashAfter arms a crash point: append number n (1-based) flushes the
// frames buffered before it, then persists only tornBytes bytes of its
// own frame — a torn write — and fails with ErrCrashed; the log is dead
// thereafter. tornBytes is clamped to the frame size minus one so the
// torn record is never replayable, and to zero from below.
func (l *Log) CrashAfter(n int64, tornBytes int) {
	l.crashAfter, l.tornBytes = n, tornBytes
}

// Append write-ahead-logs one record into the log's buffer; Flush puts
// it in the kernel. The caller must apply the mutation only after
// Append returns nil, and acknowledge it only after Flush: a failed
// append persisted either nothing (failer fault) or an unreplayable
// torn prefix (crash). Filling a segment seals it in the same call.
func (l *Log) Append(rec Record) error {
	if l.crashed {
		return ErrCrashed
	}
	if l.ferr != nil {
		return l.ferr
	}
	if !rec.Valid() {
		return fmt.Errorf("journal: unreplayable record %+v", rec)
	}
	seq := l.appends + 1
	if l.failer != nil {
		if err := l.failer(seq, rec); err != nil {
			return err
		}
	}
	if l.crashAfter > 0 && seq >= l.crashAfter {
		torn := min(max(l.tornBytes, 0), frameSize-1)
		l.buf = append(l.buf, MarshalRecord(rec)[:torn]...)
		if err := l.Flush(); err != nil {
			return err
		}
		l.crashed = true
		return ErrCrashed
	}
	l.buf = appendRecord(l.buf, rec)
	l.size += frameSize
	l.appends++
	l.sinceCkpt++
	if l.sinceCkpt-l.sealed >= int64(l.segSize) {
		l.seal()
	}
	return nil
}

// Flush writes every frame buffered since the last flush with one
// Write. A failed flush leaves the file's tail unknown, so it is
// sticky: every later Append, Flush and Checkpoint returns its error.
func (l *Log) Flush() error {
	if l.ferr != nil || len(l.buf) == 0 {
		return l.ferr
	}
	if _, l.ferr = l.f.Write(l.buf); l.ferr == nil {
		l.buf = l.buf[:0]
	}
	return l.ferr
}

// Buffered returns the bytes appended but not yet flushed.
func (l *Log) Buffered() int { return len(l.buf) }

// seal closes the open segment (no-op when empty) with one buffered
// seal frame.
func (l *Log) seal() {
	pending := l.sinceCkpt - l.sealed
	if pending == 0 {
		return
	}
	idx := len(l.seals)
	l.buf = appendSeal(l.buf, idx, int(pending))
	l.seals = append(l.seals, Seal{Index: idx, First: l.sealed + 1, Count: int(pending), Offset: l.size})
	l.size += sealFrameSize
	l.sealed += pending
}

// Checkpoint atomically persists the snapshot and truncates the
// journal. The buffer is flushed first; the snapshot is staged to a
// temporary file, synced, renamed over the checkpoint, and the rename is
// made durable with a directory fsync; only then is the journal reborn
// empty with the next generation and the checkpoint's CRC in its
// header. A crash anywhere in between leaves a recoverable pair (see
// the package comment on generations).
func (l *Log) Checkpoint(snap Snapshot) error {
	if l.crashed {
		return ErrCrashed
	}
	if err := l.Flush(); err != nil {
		return err
	}
	snap.Generation = l.generation
	tmp := filepath.Join(l.dir, checkpointTmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	crc, err := WriteCheckpoint(f, snap)
	if err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, CheckpointPath(l.dir)); err != nil {
		return err
	}
	// The rename is only durable once the directory entry is: fsync the
	// directory, or a power cut can resurrect the old checkpoint after
	// the journal was truncated — silently dropping acknowledged writes.
	if err := syncDir(l.dir); err != nil {
		return err
	}
	// The checkpoint is durable; rebirth the journal under the next
	// generation. Stale records left by a crash before this point are
	// skipped at recovery because their generation is now old.
	if err := l.f.Truncate(0); err != nil {
		return err
	}
	if _, err := l.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	l.generation++
	if _, err := l.f.Write(marshalHeader(l.generation, snap.Frontier, crc)); err != nil {
		return err
	}
	l.sealed = 0
	l.seals = nil
	l.size = headerSize
	l.sinceCkpt = 0
	l.ckpts++
	return nil
}

// syncDir fsyncs a directory, making directory-entry mutations (a
// checkpoint rename) durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// Close flushes and closes the journal file. The log is unusable afterwards.
func (l *Log) Close() error { return errors.Join(l.Flush(), l.f.Close()) }
