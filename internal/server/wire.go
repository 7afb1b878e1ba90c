// Package server exposes a volume.Manager over TCP with a compact
// length-prefixed binary protocol (read/write/stat/snapshot per volume),
// and provides the matching client library used by cmd/smrload and the
// end-to-end tests. The record layout is documented in docs/FORMATS.md.
//
// The protocol is SMRD2: every frame carries a uint64 request ID, a
// client may keep up to a negotiated window of requests in flight per
// connection, and responses complete out of order (matched by ID).
// Requests from one connection are dispatched to the volume actor in
// send order, so a single connection replaying a trace is
// bit-deterministic; only the responses are reordered. The window is
// negotiated in the hello.
package server

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"smrseek/internal/geom"
)

// Protocol constants.
const (
	// Magic + version exchanged once per connection, client first.
	Magic = "SMRD"
	// Version2 is the multiplexed SMRD2 protocol: id-stamped frames,
	// windowed pipelining, out-of-order completion.
	Version2 = 2

	// MaxFrame bounds a frame's post-length payload; stat responses
	// (JSON statistics) are the largest legitimate frames.
	MaxFrame = 1 << 20

	// MaxVolumeName bounds the volume-name field (its length is a uint8).
	MaxVolumeName = 255

	// DefaultWindow is the per-connection in-flight window granted to a
	// client that requests 0 ("server default").
	DefaultWindow = 32
	// DefaultMaxWindow caps the window a server grants unless
	// Options.MaxWindow overrides it.
	DefaultMaxWindow = 256
	// HardMaxWindow bounds any negotiated window: it also sizes the
	// per-connection completion channel, so it must stay moderate.
	HardMaxWindow = 1 << 14
)

// Request opcodes (first payload byte of a request frame).
const (
	OpWrite uint8 = iota + 1
	OpRead
	OpStat
	// Op code 4 belonged to the retired snapshot op (a forced journal
	// checkpoint), 5 and 6 to the retired online journal audit and
	// per-record proof ops (verify, proof), and 7–11 to the retired
	// replication ops (ship, tail, ack, role, promote). They stay
	// reserved and are never reused; a request carrying one is answered
	// bad-request.
)

// Response status codes (first payload byte of a response frame).
const (
	StatusOK uint8 = iota
	StatusOverloaded
	StatusUnknownVolume
	StatusBadRequest
	StatusCrashed
	// Statuses 5 and 6 belonged to the retired simulated media and
	// transient faults, and 7 to the retired snapshot op's no-journal
	// refusal. They stay reserved and are never reused.
	_
	_
	_
	StatusTimeout
	StatusInternal
	// Status 10 belonged to the retired journal audit's corrupt verdict,
	// and 11 to the retired replication status not-primary. They stay
	// reserved and are never reused.
)

var statusNames = [...]string{
	StatusOK:            "ok",
	StatusOverloaded:    "overloaded",
	StatusUnknownVolume: "unknown-volume",
	StatusBadRequest:    "bad-request",
	StatusCrashed:       "crashed",
	StatusTimeout:       "timeout",
	StatusInternal:      "internal",
}

// StatusName returns the status code's kebab-case name.
func StatusName(s uint8) string {
	if int(s) < len(statusNames) && statusNames[s] != "" {
		return statusNames[s]
	}
	return fmt.Sprintf("status(%d)", s)
}

// request is one decoded request frame.
type request struct {
	Op     uint8
	Volume string
	Extent geom.Extent // write/read only
}

// appendRequestPayload encodes the request payload:
//
//	op uint8 | vlen uint8 | name | body
//
// where body is `lba uint64 LE, count uint64 LE` for write/read and
// empty otherwise. appendRequestV2 frames it.
func appendRequestPayload(dst []byte, req request) ([]byte, error) {
	if len(req.Volume) > MaxVolumeName {
		return dst, fmt.Errorf("server: volume name %d bytes long (max %d)", len(req.Volume), MaxVolumeName)
	}
	dst = append(dst, req.Op, uint8(len(req.Volume)))
	dst = append(dst, req.Volume...)
	switch req.Op {
	case OpWrite, OpRead:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Extent.Start))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(req.Extent.Count))
	}
	return dst, nil
}

// nameCache interns volume-name strings so the reader's steady state
// allocates nothing per request: the first request for a volume pays one
// string allocation, every later one reuses it. Bounded so a client
// spraying names cannot grow it without limit.
type nameCache map[string]string

const maxCachedNames = 256

func (nc nameCache) intern(b []byte) string {
	if s, ok := nc[string(b)]; ok { // no-alloc map lookup on []byte key
		return s
	}
	s := string(b)
	if nc != nil && len(nc) < maxCachedNames {
		nc[s] = s
	}
	return s
}

// parseRequest decodes a request payload (everything after the request
// ID), interning volume names through names (nil = allocate
// per call).
func parseRequest(p []byte, names nameCache) (request, error) {
	if len(p) < 2 {
		return request{}, fmt.Errorf("server: request frame %d bytes, want >= 2", len(p))
	}
	req := request{Op: p[0]}
	vlen := int(p[1])
	p = p[2:]
	if len(p) < vlen {
		return request{}, fmt.Errorf("server: request truncated inside volume name")
	}
	req.Volume = names.intern(p[:vlen])
	p = p[vlen:]
	switch req.Op {
	case OpWrite, OpRead:
		if len(p) != 16 {
			return request{}, fmt.Errorf("server: %s body %d bytes, want 16", StatusName(StatusBadRequest), len(p))
		}
		req.Extent = geom.Ext(
			geom.Sector(binary.LittleEndian.Uint64(p[0:8])),
			int64(binary.LittleEndian.Uint64(p[8:16])),
		)
		if req.Extent.Start < 0 || req.Extent.Count < 0 {
			return request{}, fmt.Errorf("server: negative extent %v", req.Extent)
		}
		if req.Extent.Start > math.MaxInt64-req.Extent.Count {
			return request{}, fmt.Errorf("server: extent %d+%d overflows int64", req.Extent.Start, req.Extent.Count)
		}
	case OpStat:
		if len(p) != 0 {
			return request{}, fmt.Errorf("server: op %d carries %d unexpected body bytes", req.Op, len(p))
		}
	default:
		return request{}, fmt.Errorf("server: unknown op %d", req.Op)
	}
	return req, nil
}

// frameReader reads length-prefixed frames through a buffer it owns.
// Each Read takes whatever the source has, so a burst of pipelined
// frames costs one syscall rather than two per frame; next slices whole
// frames out of the buffer.
type frameReader struct {
	r          io.Reader
	buf        []byte // buf[start:end] is read but not yet returned
	start, end int
}

// newFrameReader reads from r into buf's full capacity (nil gets a
// 4 KiB buffer). The buffer grows only for a frame larger than itself.
func newFrameReader(r io.Reader, buf []byte) *frameReader {
	if cap(buf) == 0 {
		buf = make([]byte, 4096)
	}
	return &frameReader{r: r, buf: buf[:cap(buf)]}
}

// next returns the next frame's payload (everything after the length
// prefix), valid until the following call. A clean EOF between frames
// is returned as is; EOF inside a header is io.ErrUnexpectedEOF, and
// inside a body a "truncated frame" error.
func (fr *frameReader) next() ([]byte, error) {
	if err := fr.fill(4); err != nil {
		if err == io.EOF && fr.end > fr.start {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(fr.buf[fr.start:]))
	if n == 0 {
		return nil, fmt.Errorf("server: empty frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("server: frame of %d bytes exceeds the %d-byte cap", n, MaxFrame)
	}
	if err := fr.fill(4 + n); err != nil {
		if err == io.EOF && fr.end > fr.start+4 {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("server: truncated frame: %w", err)
	}
	p := fr.buf[fr.start+4 : fr.start+4+n]
	fr.start += 4 + n
	return p, nil
}

// fill reads until at least need bytes are buffered past start. What
// is buffered (nothing, or a partial frame) is first moved to the front
// of the buffer, into a larger one if it cannot fit, so each Read can
// take as much as the buffer holds.
func (fr *frameReader) fill(need int) error {
	if fr.end-fr.start >= need {
		return nil
	}
	if fr.start == fr.end || fr.start+need > len(fr.buf) {
		buf := fr.buf
		if need > len(buf) {
			buf = make([]byte, max(need, min(2*len(buf), 4+MaxFrame)))
		}
		fr.end = copy(buf, fr.buf[fr.start:fr.end])
		fr.start = 0
		fr.buf = buf
	}
	for fr.end-fr.start < need {
		n, err := fr.r.Read(fr.buf[fr.end:])
		fr.end += n
		if err != nil && fr.end-fr.start < need {
			return err
		}
	}
	return nil
}

// The hello is 7 bytes in either direction: Magic, the version byte
// and a uint16 LE window. The client sends Version2 and its requested
// window (0 = server default); the server answers Version2 and the
// window it grants.

// clientHello sends the client's hello and returns the granted window,
// which never exceeds a non-zero request.
func clientHello(rw io.ReadWriter, window int) (int, error) {
	if window < 0 || window > HardMaxWindow {
		return 0, fmt.Errorf("server: requested window %d out of range [0, %d]", window, HardMaxWindow)
	}
	hello := binary.LittleEndian.AppendUint16(append([]byte(Magic), Version2), uint16(window))
	if _, err := rw.Write(hello); err != nil {
		return 0, fmt.Errorf("server: hello: %w", err)
	}
	version, granted, err := readHello(rw)
	if err != nil {
		return 0, err
	}
	if version != Version2 {
		return 0, fmt.Errorf("server: negotiated version %d, want %d", version, Version2)
	}
	if granted < 1 || (window > 0 && granted > window) {
		return 0, fmt.Errorf("server: granted window %d, requested %d", granted, window)
	}
	return granted, nil
}

// serverHello answers a client hello: read the client's window request,
// clamp it, and reply. A client version above Version2 is served as
// Version2. maxWindow <= 0 means DefaultMaxWindow.
func serverHello(rw io.ReadWriter, maxWindow int) (int, error) {
	version, window, err := readHello(rw)
	if err != nil {
		return 0, err
	}
	if version < Version2 {
		return 0, fmt.Errorf("server: client version %d, want >= %d", version, Version2)
	}
	if maxWindow <= 0 {
		maxWindow = DefaultMaxWindow
	}
	if window == 0 {
		window = DefaultWindow
	}
	window = min(window, maxWindow, HardMaxWindow)
	reply := binary.LittleEndian.AppendUint16(append([]byte(Magic), Version2), uint16(window))
	if _, err := rw.Write(reply); err != nil {
		return 0, fmt.Errorf("server: hello: %w", err)
	}
	return window, nil
}

// readHello reads a peer's hello. A version below Version2 is returned
// before any window bytes are read: a peer that old sends none.
func readHello(r io.Reader) (version uint8, window int, err error) {
	var peer [len(Magic) + 1 + 2]byte
	if _, err := io.ReadFull(r, peer[:len(Magic)+1]); err != nil {
		return 0, 0, fmt.Errorf("server: hello: %w", err)
	}
	if string(peer[:len(Magic)]) != Magic {
		return 0, 0, fmt.Errorf("server: bad hello magic %q", peer[:len(Magic)])
	}
	version = peer[len(Magic)]
	if version < Version2 {
		return version, 0, nil
	}
	if _, err := io.ReadFull(r, peer[len(Magic)+1:]); err != nil {
		return 0, 0, fmt.Errorf("server: hello window: %w", err)
	}
	return version, int(binary.LittleEndian.Uint16(peer[len(Magic)+1:])), nil
}

// Frame layout: a uint32 LE length, then a payload that starts with the
// uint64 LE request ID. A request's ID is followed by the request
// payload (appendRequestPayload); a response's by its status byte and
// body. For StatusOK the body is op-specific (read: frags uint32 LE;
// stat: JSON statistics; write/snapshot: empty); for errors it is a
// UTF-8 message.
const idSize = 8

// appendRequestV2 encodes a request frame: len | id | payload.
func appendRequestV2(dst []byte, id uint64, req request) ([]byte, error) {
	lenAt := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0) // patched below
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst, err := appendRequestPayload(dst, req)
	if err != nil {
		return dst[:lenAt], err
	}
	binary.LittleEndian.PutUint32(dst[lenAt:], uint32(len(dst)-lenAt-4))
	return dst, nil
}

// parseRequestV2 splits a request payload into its ID and the decoded
// request.
func parseRequestV2(p []byte, names nameCache) (uint64, request, error) {
	if len(p) < idSize+1 {
		return 0, request{}, fmt.Errorf("server: v2 request frame %d bytes, want >= %d", len(p), idSize+1)
	}
	id := binary.LittleEndian.Uint64(p[:idSize])
	req, err := parseRequest(p[idSize:], names)
	return id, req, err
}

// appendResponseV2 encodes a response frame: len | id | status | body.
func appendResponseV2(dst []byte, id uint64, status uint8, body []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(idSize+1+len(body)))
	dst = binary.LittleEndian.AppendUint64(dst, id)
	dst = append(dst, status)
	return append(dst, body...)
}

// parseResponseV2 splits a response payload into ID, status and body.
func parseResponseV2(p []byte) (id uint64, status uint8, body []byte, err error) {
	if len(p) < idSize+1 {
		return 0, 0, nil, fmt.Errorf("server: v2 response frame %d bytes, want >= %d", len(p), idSize+1)
	}
	return binary.LittleEndian.Uint64(p[:idSize]), p[idSize], p[idSize+1:], nil
}

// framePool recycles frame buffers between connections and response
// flushes, with get/put accounting so tests can assert no path leaks a
// buffer. Oversized buffers (a huge stat response) are dropped
// on Put rather than pinned in the pool.
type framePoolT struct {
	pool sync.Pool
	gets atomic.Int64
	puts atomic.Int64
}

const maxPooledBuf = MaxFrame

var framePool framePoolT

func (p *framePoolT) Get() []byte {
	p.gets.Add(1)
	if b, ok := p.pool.Get().(*[]byte); ok {
		return (*b)[:0]
	}
	return make([]byte, 0, 4096)
}

func (p *framePoolT) Put(b []byte) {
	p.puts.Add(1)
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	b = b[:0]
	p.pool.Put(&b)
}

// Stats returns the pool's cumulative get/put counts; a steady-state
// difference beyond the live connection count is a leak.
func (p *framePoolT) Stats() (gets, puts int64) { return p.gets.Load(), p.puts.Load() }
