package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"smrseek/internal/extmap"
	"smrseek/internal/geom"
)

// Snapshot is the serializable state of a log-structured translation
// layer at one instant: everything needed to rebuild the layer without
// replaying any journal records.
type Snapshot struct {
	// Generation is the journal generation this snapshot subsumes. A
	// journal with a generation <= this one predates the snapshot and
	// must not be replayed over it. Log.Checkpoint fills it in.
	Generation uint64
	// Chain is the seal-chain head at checkpoint time: the anchor of the
	// journal generation that follows. It commits every record sealed in
	// any generation up to this checkpoint, making the checkpoint+journal
	// pair one verifiable history. Log.Checkpoint fills it in.
	Chain Hash
	// Frontier is the write frontier position.
	Frontier geom.Sector
	// Written is the total sectors ever appended to the log.
	Written int64
	// Mappings are the extent map's mappings in ascending LBA order.
	Mappings []extmap.Mapping
}

// Checkpoint on-disk format. All integers are little-endian.
//
//	checkpoint := magic(8) generation(8) frontier(8) written(8) chain(32)
//	              nMappings(8) mapping* crc32(4)
//	mapping    := lbaStart(8) lbaCount(8) pba(8)                [24 bytes]
//
// The trailing CRC covers every byte after the magic. A checkpoint is
// written to a temporary file and renamed into place, so readers only
// ever see a complete file — the CRC guards against the remaining ways
// a file can rot (bad media, partial rename on non-atomic filesystems).
const (
	checkpointMagic = "SMRCKP02"
	ckptFixedSize   = 8 + 8 + 8 + 8 + 32 + 8
	mappingSize     = 8 + 8 + 8
	maxCkptMappings = 1 << 28 // preallocation sanity bound (~6 GiB of mappings)
)

// WriteCheckpoint serializes the snapshot to w.
func WriteCheckpoint(w io.Writer, snap Snapshot) error {
	buf := make([]byte, ckptFixedSize+mappingSize*len(snap.Mappings)+4)
	copy(buf[0:8], checkpointMagic)
	binary.LittleEndian.PutUint64(buf[8:16], snap.Generation)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(snap.Frontier))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(snap.Written))
	copy(buf[32:64], snap.Chain[:])
	binary.LittleEndian.PutUint64(buf[64:72], uint64(len(snap.Mappings)))
	off := ckptFixedSize
	for _, m := range snap.Mappings {
		binary.LittleEndian.PutUint64(buf[off:off+8], uint64(m.Lba.Start))
		binary.LittleEndian.PutUint64(buf[off+8:off+16], uint64(m.Lba.Count))
		binary.LittleEndian.PutUint64(buf[off+16:off+24], uint64(m.Pba))
		off += mappingSize
	}
	binary.LittleEndian.PutUint32(buf[off:], crc32.ChecksumIEEE(buf[8:off]))
	_, err := w.Write(buf)
	return err
}

// ReadCheckpoint parses a checkpoint stream. Unlike the journal, a
// checkpoint is all-or-nothing: any damage is an error, never a partial
// result, because the rename protocol means a visible checkpoint was
// written completely.
func ReadCheckpoint(r io.Reader) (Snapshot, error) {
	var snap Snapshot
	fixed := make([]byte, ckptFixedSize)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return snap, fmt.Errorf("journal: reading checkpoint header: %w", err)
	}
	if string(fixed[0:8]) != checkpointMagic {
		return snap, fmt.Errorf("journal: bad checkpoint magic %q", fixed[0:8])
	}
	n := binary.LittleEndian.Uint64(fixed[64:72])
	if n > maxCkptMappings {
		return snap, fmt.Errorf("journal: implausible checkpoint mapping count %d", n)
	}
	rest := make([]byte, int(n)*mappingSize+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return snap, fmt.Errorf("journal: reading checkpoint body: %w", err)
	}
	crc := crc32.ChecksumIEEE(fixed[8:])
	crc = crc32.Update(crc, crc32.IEEETable, rest[:len(rest)-4])
	if crc != binary.LittleEndian.Uint32(rest[len(rest)-4:]) {
		return snap, fmt.Errorf("journal: checkpoint checksum mismatch")
	}
	snap.Generation = binary.LittleEndian.Uint64(fixed[8:16])
	snap.Frontier = int64(binary.LittleEndian.Uint64(fixed[16:24]))
	snap.Written = int64(binary.LittleEndian.Uint64(fixed[24:32]))
	copy(snap.Chain[:], fixed[32:64])
	if snap.Frontier < 0 || snap.Written < 0 {
		return snap, fmt.Errorf("journal: negative checkpoint counters (frontier=%d written=%d)",
			snap.Frontier, snap.Written)
	}
	snap.Mappings = make([]extmap.Mapping, n)
	var prevEnd geom.Sector
	for i := range snap.Mappings {
		off := i * mappingSize
		m := extmap.Mapping{
			Lba: geom.Extent{
				Start: int64(binary.LittleEndian.Uint64(rest[off : off+8])),
				Count: int64(binary.LittleEndian.Uint64(rest[off+8 : off+16])),
			},
			Pba: int64(binary.LittleEndian.Uint64(rest[off+16 : off+24])),
		}
		// A mapping must pass the same field checks as a write record,
		// overflow guards included, and follow its predecessor.
		if !(Record{Kind: RecWrite, Lba: m.Lba, Pba: m.Pba}).Valid() || m.Lba.Start < prevEnd {
			return snap, fmt.Errorf("journal: checkpoint mapping %d invalid or out of order: %v", i, m)
		}
		prevEnd = m.Lba.End()
		snap.Mappings[i] = m
	}
	return snap, nil
}

// ReadCheckpointFile loads and CRC-verifies a checkpoint file. A
// missing file returns (nil, nil): no checkpoint yet is a normal state,
// damage is not.
func ReadCheckpointFile(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	snap, err := ReadCheckpoint(f)
	if err != nil {
		return nil, err
	}
	return &snap, nil
}

// LoadDirWorkers reads the checkpoint/journal pair from a journal
// directory, as left by a crash (or a clean shutdown): the checkpoint if
// present, and the journal's parsed records — already filtered by the
// generation rule, so d.Records is exactly the sequence to replay on top
// of the snapshot. Either file may be absent; both absent is an error.
//
// Damage inside the journal's sealed region surfaces as a *CorruptError
// even here, checkpoint or not: LoadDirWorkers is lenient only about
// crash signatures (torn tails, a half-written header under a valid
// checkpoint, a stale pre-checkpoint generation), never about bytes the
// seal chain had already committed.
//
// workers is the verification worker count for the journal scan (see
// ScanBytesWorkers): workers <= 0 uses DefaultRecoveryWorkers, 1 scans
// inline. The result is bit-identical at any worker count.
func LoadDirWorkers(dir string, workers int) (*Snapshot, Data, error) {
	snap, d, _, err := readDir(dir, workers, false)
	return snap, d, err
}
