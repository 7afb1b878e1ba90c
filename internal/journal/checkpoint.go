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
	maxCkptMappings = 1 << 28  // sanity bound on the header's count (~6 GiB of mappings)
	ckptChunk       = 32 << 10 // the one buffer a checkpoint is written and read through
)

// WriteCheckpoint serializes the snapshot to w and returns the
// checkpoint's trailing CRC.
func WriteCheckpoint(w io.Writer, snap Snapshot) (uint32, error) {
	return writeCheckpoint(w, snap.Generation, snap.Frontier, snap.Written, len(snap.Mappings),
		func(yield func(extmap.Mapping) bool) {
			for _, m := range snap.Mappings {
				if !yield(m) {
					return
				}
			}
		})
}

// writeCheckpoint streams a checkpoint of the n mappings walk yields, in
// ascending LBA order, to w through one ckptChunk buffer and returns its
// trailing CRC. The CRC is updated once per buffer, just before its
// Write. A walk that yields other than n mappings is an error.
func writeCheckpoint(w io.Writer, gen uint64, frontier geom.Sector, written int64, n int,
	walk func(func(extmap.Mapping) bool)) (uint32, error) {
	buf := make([]byte, ckptFixedSize, ckptChunk+4)
	copy(buf, checkpointMagic)
	binary.LittleEndian.PutUint64(buf[8:16], gen)
	binary.LittleEndian.PutUint64(buf[16:24], uint64(frontier))
	binary.LittleEndian.PutUint64(buf[24:32], uint64(written))
	binary.LittleEndian.PutUint64(buf[32:40], uint64(n))
	var crc uint32
	var err error
	skip, got := 8, 0 // the magic is outside the CRC
	walk(func(m extmap.Mapping) bool {
		if len(buf)+mappingSize > ckptChunk {
			crc, skip = crc32.Update(crc, crc32.IEEETable, buf[skip:]), 0
			if _, err = w.Write(buf); err != nil {
				return false
			}
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Lba.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Lba.Count))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(m.Pba))
		got++
		return true
	})
	if err != nil {
		return 0, err
	}
	if got != n {
		return 0, fmt.Errorf("journal: checkpoint walk yielded %d mappings, want %d", got, n)
	}
	crc = crc32.Update(crc, crc32.IEEETable, buf[skip:])
	_, err = w.Write(binary.LittleEndian.AppendUint32(buf, crc))
	return crc, err
}

// readCheckpoint parses a checkpoint stream and returns it with its
// trailing CRC, which the journal reborn after it must repeat. Unlike
// the journal, a checkpoint is all-or-nothing: any damage is an error,
// never a partial result, because the rename protocol means a visible
// checkpoint was written completely. The mappings are decoded as they
// arrive through one ckptChunk buffer. size is the stream's length: a
// stream of size bytes holds at most (size-44)/24 mappings whatever its
// header claims, so Mappings is reserved once to the smaller of the two,
// never to the unverified count alone.
func readCheckpoint(r io.Reader, size int64) (Snapshot, uint32, error) {
	buf := make([]byte, ckptChunk)
	fixed := buf[:ckptFixedSize]
	if _, err := io.ReadFull(r, fixed); err != nil {
		return Snapshot{}, 0, fmt.Errorf("journal: reading checkpoint header: %w", err)
	}
	if err := checkVersion(CheckpointFile, fixed, checkpointMagic); err != nil {
		return Snapshot{}, 0, err
	}
	if string(fixed[0:8]) != checkpointMagic {
		return Snapshot{}, 0, fmt.Errorf("journal: bad checkpoint magic %q", fixed[0:8])
	}
	n := binary.LittleEndian.Uint64(fixed[32:40])
	if n > maxCkptMappings {
		return Snapshot{}, 0, fmt.Errorf("journal: implausible checkpoint mapping count %d", n)
	}
	snap := Snapshot{Generation: binary.LittleEndian.Uint64(fixed[8:16])}
	snap.Frontier = int64(binary.LittleEndian.Uint64(fixed[16:24]))
	snap.Written = int64(binary.LittleEndian.Uint64(fixed[24:32]))
	if room := (size - ckptFixedSize - 4) / mappingSize; room > 0 && n > 0 { // -4: the trailing CRC
		snap.Mappings = make([]extmap.Mapping, 0, min(n, uint64(room)))
	}
	crc := crc32.ChecksumIEEE(fixed[8:])
	var bad error // the first invalid or out-of-order mapping, reported once the CRC holds
	var prevEnd geom.Sector
	for i := 0; i < int(n); {
		chunk := buf[:min(int(n)-i, ckptChunk/mappingSize)*mappingSize]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return Snapshot{}, 0, fmt.Errorf("journal: reading checkpoint body: %w", err)
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk)
		for off := 0; off < len(chunk); off, i = off+mappingSize, i+1 {
			m := extmap.Mapping{
				Lba: geom.Extent{
					Start: int64(binary.LittleEndian.Uint64(chunk[off : off+8])),
					Count: int64(binary.LittleEndian.Uint64(chunk[off+8 : off+16])),
				},
				Pba: int64(binary.LittleEndian.Uint64(chunk[off+16 : off+24])),
			}
			// A mapping must pass the same field checks as a write record,
			// overflow guards included, and follow its predecessor.
			if bad == nil && (!(Record{Kind: RecWrite, Lba: m.Lba, Pba: m.Pba}).Valid() || m.Lba.Start < prevEnd) {
				bad = fmt.Errorf("journal: checkpoint mapping %d invalid or out of order: %v", i, m)
			}
			prevEnd = m.Lba.End()
			snap.Mappings = append(snap.Mappings, m)
		}
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return Snapshot{}, 0, fmt.Errorf("journal: reading checkpoint body: %w", err)
	}
	if crc != binary.LittleEndian.Uint32(buf[:4]) {
		return Snapshot{}, 0, fmt.Errorf("journal: checkpoint checksum mismatch")
	}
	if snap.Frontier < 0 || snap.Written < 0 {
		return Snapshot{}, 0, fmt.Errorf("journal: negative checkpoint counters (frontier=%d written=%d)",
			snap.Frontier, snap.Written)
	}
	if bad != nil {
		return Snapshot{}, 0, bad
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
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	snap, crc, err := readCheckpoint(f, fi.Size())
	if err != nil {
		return nil, 0, err
	}
	return &snap, crc, nil
}
