package server

import (
	"encoding/binary"
	"encoding/json"
	"net"
	"sync/atomic"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/volume"
)

// The request path: each connection splits into two goroutines.
//
//   - The reader (the serveConn goroutine) decodes request frames out of
//     a frameReader over a pooled buffer (one Read takes every frame the
//     socket holds), answers pre-dispatch errors through the direct
//     channel, and dispatches volume ops via TryDo with the request ID
//     as the Tag. The request's metadata (op, admit time) is sent on
//     the submits channel strictly AFTER the TryDo succeeds, so the
//     writer can always reconcile a result against a metadata record
//     that is either already queued or imminent.
//
//   - The writer drains the shared completion channel (one buffered
//     channel per connection, capacity = the negotiated window, so the
//     volume actor never blocks publishing a result), matches results to
//     metadata by Tag, encodes responses into a pooled buffer, and
//     flushes in batches: everything ready now goes out in one Write, so
//     the per-volume actor absorbs whole network batches per wakeup.
//
// A timeout answers StatusTimeout; the eventual result is counted in
// Abandoned and dropped. (Per-volume dispatch order is unaffected — the
// request still executes; only its response is replaced.) Responses are
// matched by ID, so the connection stays open and later requests
// proceed.

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
	id uint64
	op uint8
	at time.Time // admit time; zero when no RequestTimeout is set
}

// connection is the state shared between a connection's reader and
// writer.
type connection struct {
	s      *Server
	conn   net.Conn
	window int

	done    chan volume.Result // volume completions, Tag = request ID
	direct  chan directResp    // reader-crafted responses
	submits chan reqMeta       // metadata for dispatched volume requests
	dead    chan struct{}      // closed when the writer exits

	// outstanding counts dispatched volume requests whose results the
	// writer has not yet consumed. Only the reader increments, so its
	// window check can only over-count — never admit past the window.
	outstanding atomic.Int64
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
		submits: make(chan reqMeta, window),
		dead:    make(chan struct{}),
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
	// The reader is the only sender on both channels; closing them tells
	// the writer to drain what is outstanding and exit.
	close(c.submits)
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
	case OpVerify:
		kind = volume.OpVerify
	case OpProof:
		kind = volume.OpProof
	}

	// Window enforcement: a client pushing past its grant is shed, not
	// stalled — the same contract the volume queue applies.
	if c.outstanding.Load() >= int64(c.window) {
		return c.sendDirect(id, StatusOverloaded, []byte("connection window exceeded"))
	}
	c.outstanding.Add(1)
	if err := vol.TryDo(volume.Request{Kind: kind, Extent: req.Extent, Seq: req.Seq, Tag: id}, c.done); err != nil {
		c.outstanding.Add(-1)
		return c.sendDirect(id, statusOf(err), []byte(err.Error()))
	}
	m := reqMeta{id: id, op: req.Op}
	if s.opts.RequestTimeout > 0 {
		m.at = time.Now()
	}
	select {
	case c.submits <- m:
		return true
	case <-c.dead:
		return false
	}
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
		pending    = make(map[uint64]reqMeta) // dispatched, result not yet seen
		timedOut   = make(map[uint64]bool)    // answered StatusTimeout already
		submits    = c.submits                // nil once closed
		direct     = c.direct                 // nil once closed
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

	// complete consumes one volume result: reconcile metadata, encode or
	// abandon.
	complete := func(res volume.Result) {
		id := res.Tag
		m, ok := pending[id]
		if !ok {
			// The result outran its metadata: the reader sends on submits
			// strictly after TryDo, so the record is queued or imminent —
			// drain submits until it shows up. This cannot deadlock: a
			// result implies a completed TryDo implies a matching send.
			for !ok && submits != nil {
				m2, open := <-submits
				if !open {
					submits = nil
					break
				}
				pending[m2.id] = m2
				if m2.id == id {
					m, ok = m2, true
				}
			}
		}
		c.outstanding.Add(-1)
		delete(pending, id)
		if !ok || timedOut[id] {
			delete(timedOut, id)
			c.s.abandoned.Add(1)
			return
		}
		if res.Err != nil {
			out = appendResponseV2(out, id, statusOf(res.Err), []byte(res.Err.Error()))
			return
		}
		out = c.appendOK(out, id, m.op, res)
	}

	for {
		if submits == nil && direct == nil && c.outstanding.Load() == 0 {
			flush()
			return
		}
		// Batch whatever is ready; flush the moment the connection goes
		// quiet. (A closed channel has len 0 and is taken, and set to nil,
		// by the select below.)
		if len(out) > 0 && len(c.done) == 0 && len(direct) == 0 && len(submits) == 0 {
			flush()
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
		case m, open := <-submits:
			if !open {
				submits = nil
				break
			}
			pending[m.id] = m
		case <-tickC:
			c.scanTimeouts(pending, timedOut, &out, timeoutMsg)
		case <-c.s.ctx.Done():
			// Server shutdown: results still in flight land in the
			// buffered done channel (capacity = window), so the volume
			// actor is never blocked by this early exit.
			flush()
			return
		}
		if len(out) >= flushThreshold {
			flush()
		}
	}
}

// scanTimeouts answers StatusTimeout for every pending request past the
// deadline. The request still executes; its result is later counted in
// Abandoned.
func (c *connection) scanTimeouts(pending map[uint64]reqMeta, timedOut map[uint64]bool, out *[]byte, msg []byte) {
	d := c.s.opts.RequestTimeout
	now := time.Now()
	for id, m := range pending {
		if !timedOut[id] && now.Sub(m.at) >= d {
			timedOut[id] = true
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
	case OpVerify:
		body, err := json.Marshal(res.Audit)
		if err != nil {
			return appendResponseV2(out, id, StatusInternal, []byte(err.Error()))
		}
		return appendResponseV2(out, id, StatusOK, body)
	case OpProof:
		body, err := json.Marshal(res.Proof)
		if err != nil {
			return appendResponseV2(out, id, StatusInternal, []byte(err.Error()))
		}
		return appendResponseV2(out, id, StatusOK, body)
	default:
		return appendResponseV2(out, id, StatusOK, nil)
	}
}
