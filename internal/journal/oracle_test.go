package journal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// The sequential journal scanner, kept only as a test oracle: an
// independent single-loop implementation of the framing, CRC, Merkle,
// seal and chain rules that the differential matrix (parallel_test.go)
// compares the production walker against, byte for byte, at every
// worker count. No production path calls it.

// scanJournal is the full parse + seal check over raw journal bytes.
func scanJournal(raw []byte) (Data, error) {
	var d Data
	if len(raw) < headerSize {
		return d, fmt.Errorf("journal: short header (%d bytes)", len(raw))
	}
	gen, frontier, anchor, err := unmarshalHeader(raw)
	if err != nil {
		// A crash mid-rebirth (truncate done, header write torn) leaves a
		// SHORT file: nothing but partial header bytes. A damaged header
		// with sealed content after it is not that — it is damage to a
		// file that was whole.
		if findSealFrom(raw, 0) >= 0 {
			return d, &CorruptError{File: JournalFile, Segment: 0, Offset: 0,
				Reason: "damaged header ahead of sealed content"}
		}
		return d, err
	}
	d.Generation, d.InitFrontier, d.Anchor = gen, frontier, anchor

	chain := anchor
	var pending []Hash // leaf hashes since the last seal
	pendingFirst := int64(1)
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
			pending = append(pending, LeafHash(payload))
		case plen == sealPayloadSize && payload[0] == byte(RecSeal):
			idx, cnt, root, sealChain, ok := parseSealPayload(payload)
			if !ok {
				return damaged(off, "malformed seal payload")
			}
			if int(idx) != len(d.Seals) {
				return sealBroken(off, fmt.Sprintf("seal index %d, want %d", idx, len(d.Seals)))
			}
			if int(cnt) != len(pending) {
				return sealBroken(off, fmt.Sprintf("seal covers %d records, %d are pending", cnt, len(pending)))
			}
			if got := MerkleRoot(pending); got != root {
				return sealBroken(off, fmt.Sprintf("segment root %s, sealed %s", got.Short(), root.Short()))
			}
			if want := chainLink(chain, root); want != sealChain {
				return sealBroken(off, fmt.Sprintf("chain %s, sealed %s", want.Short(), sealChain.Short()))
			}
			chain = sealChain
			d.Seals = append(d.Seals, Seal{
				Index: int(idx), First: pendingFirst, Count: int(cnt),
				Root: root, Chain: sealChain, Offset: off,
			})
			d.Sealed += cnt
			pendingFirst += cnt
			pending = pending[:0]
		default:
			return damaged(off, fmt.Sprintf("unrecognized %d-byte frame", plen))
		}
		off = next
	}
	return d, nil
}
