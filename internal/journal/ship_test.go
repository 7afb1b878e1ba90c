package journal

import "testing"

// TestShipFromBeforeFirstSeal: until a journal holds its first seal —
// header only, or header plus open-segment records — a follower at
// (0, 0) is told there is nothing to ship; the bare header must never go
// out as a segments chunk, which the receiver could only reject. The
// first seal then ships header and segment together, and verifies.
func TestShipFromBeforeFirstSeal(t *testing.T) {
	dir := t.TempDir()
	l := sealedLog(t, dir, 100, 0)
	defer l.Close()
	ship := func(gen uint64, off int64) ShipChunk {
		t.Helper()
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		c, err := ShipFrom(dir, gen, off, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if c := ship(0, 0); c.Kind != ShipNone || c.Off != 0 || len(c.Data) != 0 {
		t.Fatalf("header-only journal shipped a kind %d chunk at %d with %d bytes, want none",
			c.Kind, c.Off, len(c.Data))
	}
	for i := int64(0); i < 5; i++ {
		if err := l.Append(rec(RecWrite, i*4, 4, i*4)); err != nil {
			t.Fatal(err)
		}
	}
	if c := ship(0, 0); c.Kind != ShipNone {
		t.Fatalf("unsealed records shipped as a kind %d chunk of %d bytes", c.Kind, len(c.Data))
	}

	if err := l.Seal(); err != nil {
		t.Fatal(err)
	}
	c := ship(0, 0)
	if want := l.Seals()[0].Offset + sealFrameSize; c.Kind != ShipSegments || c.Off != 0 || int64(len(c.Data)) != want {
		t.Fatalf("after the first seal: kind %d chunk at %d with %d bytes, want segments at 0 with %d",
			c.Kind, c.Off, len(c.Data), want)
	}
	gen, _, anchor, err := ParseHeader(c.Data)
	if err != nil {
		t.Fatal(err)
	}
	st, err := VerifyChunkSegments(c.Data[HeaderLen:], ChunkState{Gen: gen, Offset: HeaderLen, Chain: anchor})
	if err != nil {
		t.Fatalf("first shipped chunk does not verify: %v", err)
	}
	if st.Records != 5 || st.Chain != l.Chain() {
		t.Fatalf("verified %d records to chain %s, want 5 to %s", st.Records, st.Chain.Short(), l.Chain().Short())
	}
	if c := ship(st.Gen, st.Offset); c.Kind != ShipNone {
		t.Fatalf("caught-up follower got a kind %d chunk", c.Kind)
	}
}
