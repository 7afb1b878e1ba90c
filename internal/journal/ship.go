package journal

import (
	"errors"
	"fmt"
	"os"
)

// Segment shipping: replication moves the journal between nodes as raw
// file bytes, never as re-encoded records. Within one generation the
// journal file is append-only and its sealed prefix immutable, so a
// follower's journal file is always a byte-identical prefix of the
// primary's — the receiving side verifies each chunk with the same frame
// walker recovery runs (in chunk mode, see VerifyChunkSegments), and a
// promoted follower replays literally the bytes the primary wrote.

// Ship chunk kinds.
const (
	// ShipNone means the requester already holds every sealed byte.
	ShipNone uint8 = iota
	// ShipSegments carries journal file bytes [Off, Off+len(Data)) of
	// generation Gen, ending exactly on a seal-frame boundary. Off == 0
	// includes the journal header: the receiver starts a fresh file.
	ShipSegments
	// ShipCheckpoint carries a complete checkpoint file of generation
	// Gen. The receiver is behind a rebirth: it installs the checkpoint,
	// discards its stale journal, and resumes shipping at Gen+1.
	ShipCheckpoint
)

// ShipChunk is one unit of journal replication.
type ShipChunk struct {
	Kind uint8
	// Gen is the journal generation Data belongs to (ShipSegments), or
	// the checkpoint's generation (ShipCheckpoint).
	Gen uint64
	// Off is the byte offset of Data within the journal file
	// (ShipSegments only).
	Off  int64
	Data []byte
}

// ErrStaleSource is returned by ShipFrom when the requester's journal
// generation is ahead of the source's — the signature of a demoted or
// rolled-back primary being asked to feed a newer follower.
var ErrStaleSource = errors.New("journal: ship source is behind the requester")

// ShipFrom reads the next replication chunk from the journal directory
// for a follower whose journal is at (gen, off): generation gen with off
// bytes of that generation's file already applied (0,0 = empty). Only
// seal-covered bytes ship — the chunk always ends on a seal boundary —
// so the receiver can verify the chain before applying. maxBytes softly
// caps the chunk: at least one whole segment is returned even if it is
// larger. The caller must guarantee the directory is quiescent (on the
// volume actor, nothing else writes it).
func ShipFrom(dir string, gen uint64, off int64, maxBytes int) (ShipChunk, error) {
	if off < 0 {
		return ShipChunk{}, fmt.Errorf("journal: negative ship offset %d", off)
	}
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		return ShipChunk{}, fmt.Errorf("journal: ship source: %w", err)
	}
	jgen, _, _, err := unmarshalHeader(raw)
	if err != nil {
		return ShipChunk{}, fmt.Errorf("journal: ship source header: %w", err)
	}
	if gen > jgen {
		return ShipChunk{}, fmt.Errorf("%w: requester at generation %d, source journal at %d",
			ErrStaleSource, gen, jgen)
	}
	if gen < jgen {
		// The requester predates this generation. A rebirth always commits
		// a checkpoint first, so hand that over; it subsumes every
		// generation up to jgen-1. Without a checkpoint the source is on
		// its first generation and the requester simply starts from zero.
		snap, err := readCheckpointFile(CheckpointPath(dir))
		if err != nil {
			return ShipChunk{}, fmt.Errorf("journal: ship source checkpoint: %w", err)
		}
		if snap != nil {
			ckpt, err := os.ReadFile(CheckpointPath(dir))
			if err != nil {
				return ShipChunk{}, err
			}
			return ShipChunk{Kind: ShipCheckpoint, Gen: snap.Generation, Data: ckpt}, nil
		}
		gen, off = jgen, 0
	}
	d, err := ScanBytes(raw)
	if err != nil {
		// The source's own journal must verify before a byte of it ships.
		return ShipChunk{}, err
	}
	// Before the first seal the sealed extent is the bare header, which
	// carries nothing a receiver could verify: that too is "nothing to
	// ship yet", not a chunk.
	end := sealedEnd(d)
	if len(d.Seals) == 0 || off >= end {
		return ShipChunk{Kind: ShipNone, Gen: jgen, Off: off}, nil
	}
	// Clip to the furthest seal boundary within maxBytes of off; a single
	// over-size segment ships whole (the cap is soft).
	clipped := end
	if maxBytes > 0 {
		clipped = 0
		for _, s := range d.Seals {
			b := s.Offset + sealFrameSize
			if b <= off {
				continue
			}
			if clipped != 0 && b-off > int64(maxBytes) {
				break
			}
			clipped = b
		}
		if clipped == 0 {
			clipped = end
		}
	}
	return ShipChunk{Kind: ShipSegments, Gen: jgen, Off: off, Data: raw[off:clipped]}, nil
}

// sealedEnd returns the byte offset just past d's last seal frame.
func sealedEnd(d Data) int64 {
	if n := len(d.Seals); n > 0 {
		return d.Seals[n-1].Offset + sealFrameSize
	}
	return headerSize
}

// ScanBytes parses raw journal file bytes with the same walker recovery
// runs, inline on the calling goroutine: every frame CRC checked, every
// seal's Merkle root and chain link recomputed. A damaged frame followed
// by no further intact seal marks Data.Torn; damage inside the sealed
// region is a *CorruptError. ShipFrom uses it to verify the source's own
// journal before a byte of it ships.
func ScanBytes(raw []byte) (Data, error) { return ScanBytesWorkers(raw, 1) }

// ParseHeader decodes a journal file header, returning its generation,
// birth frontier and seal-chain anchor.
func ParseHeader(raw []byte) (gen uint64, frontier int64, anchor Hash, err error) {
	g, f, a, err := unmarshalHeader(raw)
	return g, int64(f), a, err
}

// SealedEndOf returns the sealed byte extent of parsed journal data —
// the offset just past the last seal frame (the header size when
// nothing is sealed).
func SealedEndOf(d Data) int64 { return sealedEnd(d) }

// ReadCheckpointFile loads and CRC-verifies a checkpoint file. A
// missing file returns (nil, nil): no checkpoint yet is a normal state,
// damage is not.
func ReadCheckpointFile(path string) (*Snapshot, error) { return readCheckpointFile(path) }
