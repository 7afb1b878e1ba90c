package server

// Fuzzers over the SMRD2 wire layer: frame codecs (request-ID header,
// op payloads), the buffered frame reader and the version/window hello.
// Malformed input must error cleanly — never panic, never mis-round-trip.
// The CI fuzz smoke leg runs them briefly on every push.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"testing"

	"smrseek/internal/geom"
)

// FuzzWireFrame throws arbitrary bytes at both frame parsers and pins
// the canonical-encoding property: whatever parses must re-encode to
// exactly the bytes that parsed. A parsed write or read extent must
// also end within int64.
func FuzzWireFrame(f *testing.F) {
	// Valid request frames of every op as seeds (payload only, the way
	// the read loop hands them to the parser).
	seed := func(req request) {
		frame, err := appendRequestV2(nil, 12345, req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame[4:])
	}
	seed(request{Op: OpWrite, Volume: "v", Extent: geom.Ext(8, 16)})
	seed(request{Op: OpRead, Volume: "vol-name", Extent: geom.Ext(0, 1)})
	seed(request{Op: OpStat, Volume: "v"})
	seed(request{Op: OpSnapshot, Volume: "v"})
	seed(request{Op: OpVerify, Volume: "v"})
	seed(request{Op: OpProof, Volume: "v", Seq: 7})
	// Response-shaped seeds and degenerate frames.
	f.Add(appendResponseV2(nil, 1, StatusOK, []byte{1, 2, 3, 4})[4:])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, idSize+1))
	// An extent whose end overflows int64.
	seed(request{Op: OpWrite, Volume: "v", Extent: geom.Ext(math.MaxInt64-10, 100)})

	f.Fuzz(func(t *testing.T, p []byte) {
		names := make(nameCache)
		if id, req, err := parseRequestV2(p, names); err == nil {
			if (req.Op == OpWrite || req.Op == OpRead) && req.Extent.Start > math.MaxInt64-req.Extent.Count {
				t.Fatalf("parsed extent %d+%d overflows int64", req.Extent.Start, req.Extent.Count)
			}
			enc, err := appendRequestV2(nil, id, req)
			if err != nil {
				t.Fatalf("re-encode of parsed request %+v: %v", req, err)
			}
			if !bytes.Equal(enc[4:], p) {
				t.Fatalf("request round trip diverged:\n in  %x\n out %x", p, enc[4:])
			}
		}
		if id, status, body, err := parseResponseV2(p); err == nil {
			enc := appendResponseV2(nil, id, status, body)
			if !bytes.Equal(enc[4:], p) {
				t.Fatalf("response round trip diverged:\n in  %x\n out %x", p, enc[4:])
			}
		}
	})
}

// FuzzHello drives both hello directions with arbitrary peer bytes:
// the server reading a fuzzed client hello, and the client reading a
// fuzzed server reply. Whatever survives must be a sane negotiation:
// the server accepts only a client version >= 2, and the client only
// a server version of exactly 2.
func FuzzHello(f *testing.F) {
	f.Add([]byte("SMRD\x01"))
	f.Add([]byte("SMRD\x02\x00\x00"))
	f.Add([]byte("SMRD\x02\x40\x00"))
	f.Add([]byte("SMRD\x02\xff\xff"))
	f.Add([]byte("SMRX\x01"))
	f.Add([]byte("SM"))
	f.Add([]byte("SMRD\x07\x01\x00extra trailing bytes"))

	f.Fuzz(func(t *testing.T, p []byte) {
		srv := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(p), io.Discard}
		if window, err := serverHello(srv, 0); err == nil {
			if p[len(Magic)] < Version2 {
				t.Fatalf("serverHello accepted version %d", p[len(Magic)])
			}
			if window < 1 || window > DefaultMaxWindow {
				t.Fatalf("serverHello granted window %d", window)
			}
		}
		cli := struct {
			io.Reader
			io.Writer
		}{bytes.NewReader(p), io.Discard}
		if window, err := clientHello(cli, 8); err == nil {
			if p[len(Magic)] != Version2 {
				t.Fatalf("clientHello accepted version %d", p[len(Magic)])
			}
			if window < 1 || window > 8 {
				t.Fatalf("clientHello accepted window %d beyond its request", window)
			}
		}
	})
}

// readFrameFull is the unbuffered reader frameReader replaced: one
// io.ReadFull for the header and one for the body. It is the oracle
// FuzzFrameReader compares against.
func readFrameFull(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("server: empty frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", n, MaxFrame)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("server: truncated frame: %w", err)
	}
	return buf, nil
}

// chunkReader hands out data in the chunk sizes whose bytes cycle
// through (0 = everything left). With eofWithData the last chunk comes
// back together with io.EOF, as some readers do.
type chunkReader struct {
	data        []byte
	sizes       uint64
	eofWithData bool
}

func (c *chunkReader) Read(p []byte) (int, error) {
	if len(c.data) == 0 {
		return 0, io.EOF
	}
	n := len(c.data)
	if s := int(c.sizes & 0xff); s > 0 && s < n {
		n = s
	}
	c.sizes = c.sizes>>8 | c.sizes<<56
	n = copy(p, c.data[:n])
	c.data = c.data[n:]
	if len(c.data) == 0 && c.eofWithData {
		return n, io.EOF
	}
	return n, nil
}

// bigFrameLen is larger than frameReader's initial buffer, so a stream
// carrying it exercises both growth and compaction.
const bigFrameLen = 6000

// FuzzFrameReader feeds frameReader a stream of valid frames followed
// by arbitrary tail bytes, in fuzz-chosen chunk sizes. in[0] counts the
// frames and the next in[0] bytes are their payload lengths less one;
// big adds one frame of bigFrameLen in the middle; the rest of in is the
// tail. The reader must yield exactly the frames the two-ReadFull reader
// yields, in order, and stop with the same error.
func FuzzFrameReader(f *testing.F) {
	const ones = 0x0101010101010101
	f.Add([]byte{3, 3, 0, 200}, uint64(ones), true, false)
	f.Add([]byte{3, 10, 20, 30, 0, 0, 0, 0}, uint64(0x0300070003000700), true, true)
	f.Add([]byte{2, 255, 255, 0xff, 0xff, 0xff, 0xff}, uint64(0), false, false)
	f.Add([]byte{1, 1, 2, 0}, uint64(ones), false, true)
	f.Add([]byte{4, 8, 8, 8, 8, 16, 0, 0, 0, 0xaa}, uint64(0x0105), true, true)
	f.Add([]byte{0, 9, 0, 0, 0}, uint64(0), false, false)

	f.Fuzz(func(t *testing.T, in []byte, sizes uint64, big, eofWithData bool) {
		var lens, tail []byte
		if len(in) > 0 {
			k := min(int(in[0]), len(in)-1)
			lens, tail = in[1:1+k], in[1+k:]
		}
		var stream []byte
		frame := func(n int) {
			stream = binary.LittleEndian.AppendUint32(stream, uint32(n))
			for j := 0; j < n; j++ {
				stream = append(stream, byte(len(stream)))
			}
		}
		for i, b := range lens {
			if big && i == len(lens)/2 {
				frame(bigFrameLen)
			}
			frame(int(b) + 1)
		}
		if big && len(lens) == 0 {
			frame(bigFrameLen)
		}
		stream = append(stream, tail...)

		oracle := bytes.NewReader(stream)
		fr := newFrameReader(&chunkReader{data: stream, sizes: sizes, eofWithData: eofWithData}, nil)
		for i := 0; ; i++ {
			want, wantErr := readFrameFull(oracle)
			got, err := fr.next()
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("frame %d: error %v, want %v", i, err, wantErr)
			}
			if wantErr != nil {
				return
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("frame %d: got %d bytes %x, want %d bytes %x", i, len(got), got, len(want), want)
			}
		}
	})
}
