package server

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"sync"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/volume"
)

// The request path: each connection has a reader (the serveConn
// goroutine) and a writer.
//
//   - The reader slices request frames out of a frameReader, answers
//     pre-dispatch errors through the direct channel, and dispatches
//     volume ops via TryDo with the request ID as the Tag. It holds c.mu
//     across TryDo and the insert of the request's metadata into
//     pending, so the writer, which looks results up under c.mu, never
//     sees a result before its metadata. TryDo never blocks and the
//     actor never takes c.mu, so holding it there cannot deadlock.
//
//   - The writer drains the completion channel (capacity = the window,
//     so the actor never blocks publishing) and the direct channel with
//     plain receives, encodes everything ready into one pooled buffer,
//     flushes it in one Write, and selects only to park.
//
// A timeout answers StatusTimeout and marks the pending entry; the
// request still executes in dispatch order, its late result is dropped,
// and the connection stays open.

// flushThreshold caps how much encoded response the writer batches
// before forcing a flush mid-drain.
const flushThreshold = 256 << 10

// directResp is a reader-crafted response (decode errors, unknown
// volumes, shed beyond the window) routed through the writer so that the
// connection has a single writing goroutine.
type directResp struct {
	id     uint64
	status uint8
	body   []byte
}

// reqMeta is the reader's record of a dispatched volume request; the
// writer needs it to encode the op-specific response body and to time
// the request out.
type reqMeta struct {
	op       uint8
	timedOut bool      // answered StatusTimeout already
	at       time.Time // admit time; zero when no RequestTimeout is set
}

// connection is the state shared between a connection's reader and
// writer.
type connection struct {
	s      *Server
	conn   net.Conn
	window int

	done   chan volume.Result // volume completions, Tag = request ID
	direct chan directResp    // reader-crafted responses
	dead   chan struct{}      // closed when the writer exits

	// pending holds, by request ID, every dispatched volume request whose
	// result the writer has not consumed; its size is the window in use.
	mu      sync.Mutex
	pending map[uint64]reqMeta
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	window, err := serverHello(conn, s.opts.MaxWindow)
	if err != nil {
		s.opts.Logf("smrd: %s: %v", conn.RemoteAddr(), err)
		return
	}
	c := &connection{
		s:       s,
		conn:    conn,
		window:  window,
		done:    make(chan volume.Result, window),
		direct:  make(chan directResp, window),
		dead:    make(chan struct{}),
		pending: make(map[uint64]reqMeta),
	}
	s.wg.Add(1)
	go c.writer()

	names := make(nameCache)
	fr := newFrameReader(conn, framePool.Get())
	for {
		frame, err := fr.next()
		if err != nil {
			if s.ctx.Err() == nil && !isClosedConn(err) {
				s.opts.Logf("smrd: %s: %v", conn.RemoteAddr(), err)
			}
			break
		}
		if !c.dispatch(frame, names) {
			break
		}
	}
	framePool.Put(fr.buf)
	// The reader is the only sender on direct; closing it tells the
	// writer to drain what is outstanding and exit.
	close(c.direct)
	<-c.dead
}

// dispatch decodes and dispatches one request frame on the reader. false
// means the connection is unrecoverable (undecodable framing or a dead
// writer) and must close.
func (c *connection) dispatch(frame []byte, names nameCache) bool {
	s := c.s
	id, req, err := parseRequestV2(frame, names)
	if err != nil && len(frame) < idSize {
		// No ID to answer with: framing is broken, drop the link.
		s.opts.Logf("smrd: %s: %v", c.conn.RemoteAddr(), err)
		return false
	}
	if err != nil {
		return c.sendDirect(id, StatusBadRequest, []byte(err.Error()))
	}
	vol, ok := s.mgr.Get(req.Volume)
	if !ok {
		return c.sendDirect(id, StatusUnknownVolume, []byte("unknown volume "+req.Volume))
	}
	var kind volume.Op
	switch req.Op {
	case OpWrite:
		kind = volume.OpWrite
	case OpRead:
		kind = volume.OpRead
	case OpStat:
		kind = volume.OpStat
	case OpSnapshot:
		kind = volume.OpSnapshot
	}

	m := reqMeta{op: req.Op}
	if s.opts.RequestTimeout > 0 {
		m.at = time.Now()
	}
	c.mu.Lock()
	if _, dup := c.pending[id]; dup {
		c.mu.Unlock()
		return c.sendDirect(id, StatusBadRequest, []byte("request id already in flight"))
	}
	// Window enforcement: a client pushing past its grant is shed, not
	// stalled — the same contract the volume queue applies.
	if len(c.pending) >= c.window {
		c.mu.Unlock()
		return c.sendDirect(id, StatusOverloaded, []byte("connection window exceeded"))
	}
	err = vol.TryDo(volume.Request{Kind: kind, Extent: req.Extent, Tag: id}, c.done)
	if err == nil {
		c.pending[id] = m
	}
	c.mu.Unlock()
	if err != nil {
		return c.sendDirect(id, statusOf(err), []byte(err.Error()))
	}
	return true
}

// sendDirect routes a reader-crafted response through the writer. body
// must not alias the frame buffer (error strings and nil bodies are
// fine).
func (c *connection) sendDirect(id uint64, status uint8, body []byte) bool {
	select {
	case c.direct <- directResp{id: id, status: status, body: body}:
		return true
	case <-c.dead:
		return false
	}
}

// writer is a connection's single writing goroutine: it owns the
// response buffer and the connection's write side.
func (c *connection) writer() {
	defer c.s.wg.Done()
	defer close(c.dead)

	out := framePool.Get()
	defer func() { framePool.Put(out) }()

	var (
		direct     = c.direct // nil once closed
		writeErr   error
		timeoutMsg []byte
		tickC      <-chan time.Time
	)
	d := c.s.opts.RequestTimeout
	if d > 0 {
		// Coarse expiry scan: a quarter-period tick bounds how late a
		// timeout fires without per-request timers.
		period := d / 4
		if period < time.Millisecond {
			period = time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		tickC = tick.C
		timeoutMsg = []byte("request exceeded " + d.String())
	}

	flush := func() {
		if len(out) == 0 {
			return
		}
		if writeErr == nil {
			if _, err := c.conn.Write(out); err != nil {
				writeErr = err
				c.conn.Close() // unblock the reader
			}
		}
		out = out[:0]
	}

	// complete consumes one volume result. Its metadata is in pending:
	// the reader inserted it in the same hold of c.mu as its TryDo.
	complete := func(res volume.Result) {
		c.mu.Lock()
		m := c.pending[res.Tag]
		delete(c.pending, res.Tag)
		c.mu.Unlock()
		switch {
		case m.timedOut:
			// Answered StatusTimeout already: the late result is dropped.
		case res.Err != nil:
			out = appendResponseV2(out, res.Tag, statusOf(res.Err), []byte(res.Err.Error()))
		default:
			out = c.appendOK(out, res.Tag, m.op, res)
		}
		if len(out) >= flushThreshold {
			flush()
		}
	}

	for {
		// Encode everything ready with plain receives: the writer is the
		// only receiver on both channels, so a non-zero len cannot block.
		for len(c.done) > 0 || len(direct) > 0 {
			if len(c.done) > 0 {
				complete(<-c.done)
			} else {
				dr := <-direct
				out = appendResponseV2(out, dr.id, dr.status, dr.body)
			}
		}
		// The connection went quiet: flush, then park. direct is nil only
		// once the reader has closed it, after its last touch of pending.
		flush()
		if direct == nil && len(c.pending) == 0 {
			return
		}
		select {
		case res := <-c.done:
			complete(res)
		case dr, open := <-direct:
			if !open {
				direct = nil
				break
			}
			out = appendResponseV2(out, dr.id, dr.status, dr.body)
		case <-tickC:
			c.scanTimeouts(&out, timeoutMsg)
		case <-c.s.ctx.Done():
			// Server shutdown: results still in flight land in the
			// buffered done channel (capacity = window), so the volume
			// actor is never blocked by this early exit.
			return
		}
	}
}

// scanTimeouts answers StatusTimeout for every pending request past the
// deadline. The request still executes; the writer drops its late
// result.
func (c *connection) scanTimeouts(out *[]byte, msg []byte) {
	d := c.s.opts.RequestTimeout
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, m := range c.pending {
		if !m.timedOut && now.Sub(m.at) >= d {
			m.timedOut = true
			c.pending[id] = m
			*out = appendResponseV2(*out, id, StatusTimeout, msg)
		}
	}
}

// appendOK encodes a successful result's op-specific body. The write and
// read arms — the hot path — allocate nothing.
func (c *connection) appendOK(out []byte, id uint64, op uint8, res volume.Result) []byte {
	switch op {
	case OpRead:
		var body [4]byte
		binary.LittleEndian.PutUint32(body[:], uint32(res.Frags))
		return appendResponseV2(out, id, StatusOK, body[:])
	case OpStat:
		// Config holds layer pointers and interfaces that neither
		// marshal round-trip nor mean anything to a remote client; zero
		// it so the wire Stats is pure counters.
		st := *res.Stats
		st.Config = core.Config{}
		body, err := json.Marshal(&st)
		if err != nil {
			return appendResponseV2(out, id, StatusInternal, []byte(err.Error()))
		}
		return appendResponseV2(out, id, StatusOK, body)
	default:
		return appendResponseV2(out, id, StatusOK, nil)
	}
}
