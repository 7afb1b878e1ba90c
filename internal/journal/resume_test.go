package journal

import (
	"os"
	"strings"
	"testing"
)

// chunkFixture builds a sealed journal and returns its bytes plus the
// seal-boundary offsets (absolute, just past each seal frame).
func chunkFixture(t *testing.T, nSeals int) (raw []byte, bounds []int64) {
	t.Helper()
	dir := t.TempDir()
	l := buildSealedPair(t, dir, nSeals)
	seals := l.Seals()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range seals {
		bounds = append(bounds, s.Offset+sealFrameSize)
	}
	return raw, bounds
}

// TestVerifyChunkSegmentsIncremental feeds a sealed journal to the
// incremental verifier one seal-bounded chunk at a time: each chunk
// must verify exactly once against the cached frontier, and the final
// state must agree with a full scan.
func TestVerifyChunkSegmentsIncremental(t *testing.T) {
	raw, bounds := chunkFixture(t, 4)
	d, err := scanJournal(raw)
	if err != nil {
		t.Fatal(err)
	}
	gen, _, anchor, err := unmarshalHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	st := ChunkState{Gen: gen, Offset: HeaderLen, Chain: anchor}
	prev := HeaderLen
	for i, b := range bounds {
		st, err = VerifyChunkSegments(raw[prev:b], st)
		if err != nil {
			t.Fatalf("chunk %d: %v", i, err)
		}
		if st.Offset != b || st.Seals != i+1 {
			t.Fatalf("chunk %d: frontier (off=%d seals=%d), want (off=%d seals=%d)",
				i, st.Offset, st.Seals, b, i+1)
		}
		prev = b
	}
	if st.Chain != d.ChainHead() || st.Records != d.Sealed {
		t.Fatalf("final frontier chain=%s records=%d, scan says chain=%s records=%d",
			st.Chain.Short(), st.Records, d.ChainHead().Short(), d.Sealed)
	}
	// Multi-segment chunks work too: the whole body in one go.
	st2, err := VerifyChunkSegments(raw[HeaderLen:], ChunkState{Gen: gen, Offset: HeaderLen, Chain: anchor})
	if err != nil {
		t.Fatal(err)
	}
	if st2 != st {
		t.Fatalf("one-chunk frontier %+v differs from incremental %+v", st2, st)
	}
}

// TestVerifyChunkSegmentsRejects drives every rejection path and
// asserts the returned state is the unchanged input on each.
func TestVerifyChunkSegmentsRejects(t *testing.T) {
	raw, bounds := chunkFixture(t, 3)
	gen, _, anchor, err := unmarshalHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	base := ChunkState{Gen: gen, Offset: HeaderLen, Chain: anchor}
	first := raw[HeaderLen:bounds[0]]

	cases := []struct {
		name string
		data []byte
		st   ChunkState
		want string
	}{
		{"empty", nil, base, "empty segment chunk"},
		{"pre-header state", first, ChunkState{Gen: gen}, "precedes the header"},
		{"torn mid-frame", first[:len(first)-2], base, "partial frame"},
		{"unsealed records only", first[:frameSize], base, "unsealed"},
		{"flipped record byte", mutate(first, 10, 0xff), base, "checksum mismatch"},
		{"flipped seal root", mutate(first, len(first)-20, 0xff), base, "checksum mismatch"},
		{"skipped segment", raw[bounds[0]:bounds[1]], base, "seal index"},
		{"replayed segment", first, ChunkState{Gen: gen, Offset: bounds[0], Chain: anchor, Seals: 1}, "seal index"},
	}
	for _, tc := range cases {
		got, err := VerifyChunkSegments(tc.data, tc.st)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err=%v, want substring %q", tc.name, err, tc.want)
		}
		if got != tc.st {
			t.Errorf("%s: state advanced to %+v on failure, want unchanged %+v", tc.name, got, tc.st)
		}
	}
}

// TestVerifyChunkSegmentsChainBinding: a chunk whose seals are
// internally consistent but built on a different chain head must be
// rejected — the frontier's chain is what binds chunks to the history
// already verified.
func TestVerifyChunkSegmentsChainBinding(t *testing.T) {
	raw, bounds := chunkFixture(t, 2)
	gen, _, _, err := unmarshalHeader(raw)
	if err != nil {
		t.Fatal(err)
	}
	wrong := ChunkState{Gen: gen, Offset: HeaderLen, Chain: LeafHash([]byte("impostor"))}
	if _, err := VerifyChunkSegments(raw[HeaderLen:bounds[0]], wrong); err == nil ||
		!strings.Contains(err.Error(), "chain") {
		t.Fatalf("chunk verified against a foreign chain head: %v", err)
	}
}

// FuzzVerifyChunk feeds a sealed journal to the chunk verifier as a
// fuzz-chosen seal-bounded split (bit i of split ends a chunk at seal
// i), with one fuzz-chosen byte changed (xor != 0) in either the
// journal body or the anchor the first chunk is bound to. A chain of
// accepted chunks over unchanged input must end at exactly the frontier
// the oracle's full scan implies; a chunk holding the changed byte, or
// bound to the changed anchor, is never accepted; and a rejected chunk
// leaves the state unchanged.
func FuzzVerifyChunk(f *testing.F) {
	dir := f.TempDir()
	l := buildSealedPair(f, dir, 6)
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	raw, err := os.ReadFile(JournalPath(dir))
	if err != nil {
		f.Fatal(err)
	}
	d, err := scanJournal(raw)
	if err != nil || d.Torn || d.Anchor.IsZero() || SealedEndOf(d) != int64(len(raw)) {
		f.Fatalf("fixture: %v, torn=%v anchor=%s sealed end %d of %d",
			err, d.Torn, d.Anchor.Short(), SealedEndOf(d), len(raw))
	}
	want := ChunkState{
		Gen: d.Generation, Offset: SealedEndOf(d),
		Chain: d.ChainHead(), Seals: len(d.Seals), Records: d.Sealed,
	}
	bounds := make([]int64, len(d.Seals))
	for i, s := range d.Seals {
		bounds[i] = s.Offset + sealFrameSize
	}
	body := uint32(int64(len(raw)) - HeaderLen)
	f.Add(uint64(0), uint32(0), byte(0))              // one chunk, unchanged
	f.Add(uint64(0x3f), uint32(0), byte(0))           // one chunk per segment
	f.Add(uint64(0x15), uint32(10), byte(0xff))       // a record byte
	f.Add(uint64(0x0a), body-20, byte(0x80))          // the last seal's chain
	f.Add(uint64(0x3f), body+3, byte(0x01))           // the anchor
	f.Add(uint64(0x01), uint32(frameSize*2), byte(4)) // the first seal's length prefix
	f.Fuzz(func(t *testing.T, split uint64, pos uint32, xor byte) {
		mut, anchor, at := raw, d.Anchor, int64(-1)
		if xor != 0 {
			if p := pos % (body + uint32(len(anchor))); p < body {
				at = HeaderLen + int64(p)
				mut = mutate(raw, int(at), xor)
			} else {
				anchor[p-body] ^= xor
			}
		}
		st := ChunkState{Gen: d.Generation, Offset: HeaderLen, Chain: anchor}
		prev := HeaderLen
		for i, b := range bounds {
			if i < len(bounds)-1 && split&(1<<i) == 0 {
				continue // seal i does not end a chunk
			}
			changed := (at >= prev && at < b) || (prev == HeaderLen && anchor != d.Anchor)
			got, err := VerifyChunkSegments(mut[prev:b], st)
			if err != nil {
				if got != st {
					t.Fatalf("chunk [%d,%d) rejected but state moved to %+v from %+v", prev, b, got, st)
				}
				if !changed {
					t.Fatalf("unchanged chunk [%d,%d) rejected: %v", prev, b, err)
				}
				return
			}
			if changed {
				t.Fatalf("chunk [%d,%d) accepted with byte %d xor %#x changed (anchor changed: %v)",
					prev, b, at, xor, anchor != d.Anchor)
			}
			st, prev = got, b
		}
		if st != want {
			t.Fatalf("accepted chunks end at %+v, the full scan says %+v", st, want)
		}
	})
}
