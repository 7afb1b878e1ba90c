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
	// Frontier is the write frontier position.
	Frontier geom.Sector
	// Written is the total sectors ever appended to the log.
	Written int64
	// Mappings are the extent map's mappings in ascending LBA order.
	Mappings []extmap.Mapping
}

// Checkpoint on-disk format. All integers are little-endian.
//
//	checkpoint := magic(8) generation(8) frontier(8) written(8)
//	              nMappings(8) mapping* crc32(4)
//	mapping    := lbaStart(8) lbaCount(8) pba(8)                [24 bytes]
//
// The trailing CRC covers every byte after the magic. A checkpoint is
// written to a temporary file and renamed into place, so readers only
// ever see a complete file — the CRC guards against the remaining ways
// a file can rot (bad media, partial rename on non-atomic filesystems).
// The journal reborn after a checkpoint carries the same CRC in its
// header, which pairs the two files.
const (
	checkpointMagic = "SMRCKP03"
	ckptFixedSize   = 8 + 8 + 8 + 8 + 8
	mappingSize     = 8 + 8 + 8
	maxCkptMappings = 1 << 28 // preallocation sanity bound (~6 GiB of mappings)
)

// WriteCheckpoint serializes the snapshot to w and returns the
// checkpoint's trailing CRC.
func WriteCheckpoint(w io.Writer, snap Snapshot) (uint32, error) {
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

// ReadCheckpoint parses a checkpoint stream and returns it with its
// trailing CRC, which the journal reborn after it must repeat. Unlike
// the journal, a checkpoint is all-or-nothing: any damage is an error,
// never a partial result, because the rename protocol means a visible
// checkpoint was written completely.
func ReadCheckpoint(r io.Reader) (Snapshot, uint32, error) {
	var snap Snapshot
	fixed := make([]byte, ckptFixedSize)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return snap, 0, fmt.Errorf("journal: reading checkpoint header: %w", err)
	}
	if err := checkVersion(CheckpointFile, fixed, checkpointMagic); err != nil {
		return snap, 0, err
	}
	if string(fixed[0:8]) != checkpointMagic {
		return snap, 0, fmt.Errorf("journal: bad checkpoint magic %q", fixed[0:8])
	}
	n := binary.LittleEndian.Uint64(fixed[32:40])
	if n > maxCkptMappings {
		return snap, 0, fmt.Errorf("journal: implausible checkpoint mapping count %d", n)
	}
	rest := make([]byte, int(n)*mappingSize+4)
	if _, err := io.ReadFull(r, rest); err != nil {
		return snap, 0, fmt.Errorf("journal: reading checkpoint body: %w", err)
	}
	crc := crc32.ChecksumIEEE(fixed[8:])
	crc = crc32.Update(crc, crc32.IEEETable, rest[:len(rest)-4])
	if crc != binary.LittleEndian.Uint32(rest[len(rest)-4:]) {
		return snap, 0, fmt.Errorf("journal: checkpoint checksum mismatch")
	}
	snap.Generation = binary.LittleEndian.Uint64(fixed[8:16])
	snap.Frontier = int64(binary.LittleEndian.Uint64(fixed[16:24]))
	snap.Written = int64(binary.LittleEndian.Uint64(fixed[24:32]))
	if snap.Frontier < 0 || snap.Written < 0 {
		return snap, 0, fmt.Errorf("journal: negative checkpoint counters (frontier=%d written=%d)",
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
			return snap, 0, fmt.Errorf("journal: checkpoint mapping %d invalid or out of order: %v", i, m)
		}
		prevEnd = m.Lba.End()
		snap.Mappings[i] = m
	}
	return snap, crc, nil
}

// ReadCheckpointFile loads and CRC-verifies a checkpoint file. A
// missing file returns (nil, nil): no checkpoint yet is a normal state,
// damage is not.
func ReadCheckpointFile(path string) (*Snapshot, error) {
	snap, _, err := readCheckpointFile(path)
	return snap, err
}

// readCheckpointFile is ReadCheckpointFile that also returns the
// checkpoint's trailing CRC.
func readCheckpointFile(path string) (*Snapshot, uint32, error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	snap, crc, err := ReadCheckpoint(f)
	if err != nil {
		return nil, 0, err
	}
	return &snap, crc, nil
}
