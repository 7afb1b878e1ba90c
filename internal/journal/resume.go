package journal

import "fmt"

// Incremental chunk verification. A replication follower receives the
// primary's journal as byte-exact chunks that always end on a seal
// boundary, in order. Re-scanning the whole accumulated prefix on every
// chunk makes total verification work quadratic in journal size; a
// ChunkState caches the verified frontier — chain head, seal and record
// counts, byte offset — so each sealed byte is CRC-checked and hashed
// exactly once per process lifetime, and each new chunk verifies in
// time proportional to its own length.

// HeaderLen is the journal file header's size in bytes: the offset at
// which a generation's first frame begins.
const HeaderLen = int64(headerSize)

// ChunkState is a verified frontier within one journal generation:
// every byte below Offset of generation Gen has been verified (frame
// CRCs, segment Merkle roots, seal chain) and Chain/Seals/Records
// summarize that prefix. Offset == 0 means no bytes of the generation
// are held yet — the next chunk must be fresh and start with the
// generation's header.
type ChunkState struct {
	Gen     uint64
	Offset  int64
	Chain   Hash
	Seals   int
	Records int64
}

// VerifyChunkSegments verifies data as the exact continuation of st:
// data must be whole sealed segments — record frames closed by seal
// frames, nothing else, ending exactly on a seal boundary — whose CRCs,
// Merkle roots and chain links all extend st.Chain. It is the journal
// walker in chunk mode, anchored at st.Chain and st.Seals. On success it
// returns the advanced frontier; on any failure it returns st unchanged
// with a descriptive error and the caller must discard the whole chunk.
// The caller has already consumed the generation header (st.Offset >=
// headerSize).
func VerifyChunkSegments(data []byte, st ChunkState) (ChunkState, error) {
	if st.Offset < headerSize {
		return st, fmt.Errorf("journal: chunk state offset %d precedes the header", st.Offset)
	}
	if len(data) == 0 {
		return st, fmt.Errorf("journal: empty segment chunk")
	}
	d := Data{Anchor: st.Chain}
	if _, dm := walk(data, 0, st.Chain, st.Seals, 1, false, &d); dm != nil {
		// Offsets in data are relative to the chunk; report absolute ones.
		return st, fmt.Errorf("journal: chunk rejected at offset %d: %s", st.Offset+dm.off, dm.reason)
	}
	if tail := int64(len(d.Records)) - d.Sealed; tail != 0 {
		return st, fmt.Errorf("journal: chunk leaves %d records unsealed (does not end on a seal boundary)", tail)
	}
	return ChunkState{
		Gen:     st.Gen,
		Offset:  st.Offset + int64(len(data)),
		Chain:   d.ChainHead(),
		Seals:   st.Seals + len(d.Seals),
		Records: st.Records + d.Sealed,
	}, nil
}
