package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"smrseek/internal/disk"
	"smrseek/internal/trace"
)

// ErrClientClosed is returned by SubmitStep on a closed AsyncClient.
var ErrClientClosed = errors.New("smrd: client closed")

// Call is one in-flight pipelined request. The AsyncClient delivers the
// completed Call on the done channel passed to SubmitStep; read the outcome
// with Result (or the typed helpers on AsyncClient).
type Call struct {
	// ID is the request's wire ID, unique per connection.
	ID uint64
	// Op is the request opcode, echoed for the caller's dispatch.
	Op uint8

	status uint8
	body   []byte
	err    error
	done   chan *Call
}

// Result returns the call's response body, mapping transport failures
// and non-OK statuses to errors exactly like the synchronous client:
// *StatusError for server rejections, a connection error otherwise.
// Valid only after the Call was delivered on its done channel.
func (c *Call) Result() ([]byte, error) {
	if c.err != nil {
		return nil, c.err
	}
	if c.status != StatusOK {
		return nil, &StatusError{Status: c.status, Msg: string(c.body)}
	}
	return c.body, nil
}

// AsyncClient is one pipelined smrd connection: up to the negotiated
// window of requests in flight, responses matched by ID and completed
// out of order. Safe for concurrent use — any number of goroutines may
// submit; each Call comes back on the done channel its submitter chose
// (the volume.TryDo idiom: the channel must be buffered with room for
// every call outstanding on it).
//
// Submitting only encodes the request into a shared buffer. A writer
// goroutine sends everything queued since its last write in one Write,
// and a reader goroutine slices responses out of one buffered Read, so
// a full window costs a few syscalls rather than two per request.
type AsyncClient struct {
	conn   net.Conn
	window int

	// slots holds one token per window seat; submit acquires before
	// registering, completion releases. Capacity bounds the pipeline.
	slots  chan struct{}
	broken chan struct{} // closed on the first transport failure

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*Call
	err     error // sticky transport failure
	closed  bool

	wmu  sync.Mutex    // guards out
	out  []byte        // encoded requests the writer has not taken yet
	kick chan struct{} // capacity 1: out has bytes for the writer

	readerDone chan struct{}
	writerDone chan struct{}
}

// DialAsync connects, requesting the given window (0 = server default).
// The granted window — possibly clamped by the server — is available
// via Window.
func DialAsync(addr string, window int) (*AsyncClient, error) {
	var (
		conn net.Conn
		err  error
	)
	// Retry refused connections briefly: the daemon may still be binding
	// its listener.
	for attempt := 0; attempt < 20; attempt++ {
		if conn, err = net.Dial("tcp", addr); err == nil {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if err != nil {
		return nil, fmt.Errorf("smrd: dial %s: %w", addr, err)
	}
	granted, err := clientHello(conn, window)
	if err != nil {
		conn.Close()
		return nil, err
	}
	ac := &AsyncClient{
		conn:       conn,
		window:     granted,
		slots:      make(chan struct{}, granted),
		broken:     make(chan struct{}),
		pending:    make(map[uint64]*Call, granted),
		kick:       make(chan struct{}, 1),
		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	go ac.reader()
	go ac.writer()
	return ac, nil
}

// Window returns the granted in-flight window.
func (ac *AsyncClient) Window() int { return ac.window }

// Close closes the connection; every in-flight call completes with a
// connection error.
func (ac *AsyncClient) Close() error {
	ac.mu.Lock()
	ac.closed = true
	ac.mu.Unlock()
	err := ac.conn.Close()
	<-ac.readerDone
	<-ac.writerDone
	return err
}

// SubmitStep submits one trace record as the matching read/write; see
// submit for the done channel's contract.
func (ac *AsyncClient) SubmitStep(vol string, rec trace.Record, done chan *Call) (*Call, error) {
	switch rec.Kind {
	case disk.Write:
		return ac.submit(request{Op: OpWrite, Volume: vol, Extent: rec.Extent}, done)
	case disk.Read:
		return ac.submit(request{Op: OpRead, Volume: vol, Extent: rec.Extent}, done)
	default:
		return nil, fmt.Errorf("smrd: unsupported record kind %v", rec.Kind)
	}
}

// submit sends one request into the pipeline, blocking only while the
// window is full. The Call is delivered on done when its response
// arrives (or the connection fails). done must be buffered with
// capacity for every call outstanding on it — the delivery never
// blocks, matching the volume.TryDo contract.
func (ac *AsyncClient) submit(req request, done chan *Call) (*Call, error) {
	if done == nil || cap(done) == 0 {
		return nil, errors.New("smrd: the done channel must be buffered")
	}
	// A free seat is taken without a select; only a full window waits.
	select {
	case ac.slots <- struct{}{}:
	default:
		select {
		case ac.slots <- struct{}{}:
		case <-ac.broken:
			return nil, ac.stickyErr()
		}
	}
	ac.mu.Lock()
	if ac.err != nil || ac.closed {
		err := ac.err
		ac.mu.Unlock()
		<-ac.slots
		if err == nil {
			err = ErrClientClosed
		}
		return nil, err
	}
	ac.nextID++
	call := &Call{ID: ac.nextID, Op: req.Op, done: done}
	ac.pending[call.ID] = call
	ac.mu.Unlock()

	ac.wmu.Lock()
	var err error
	ac.out, err = appendRequestV2(ac.out, call.ID, req) // cut back on error
	ac.wmu.Unlock()
	if err != nil {
		// Encode failure (caller error, nothing queued): unwind.
		ac.mu.Lock()
		delete(ac.pending, call.ID)
		ac.mu.Unlock()
		<-ac.slots
		return nil, err
	}
	select {
	case ac.kick <- struct{}{}:
	default: // a kick is already pending; the writer takes these bytes too
	}
	return call, nil
}

// writer is the connection's single request-writing goroutine: on each
// kick it takes everything submitted so far, swapping in its spare
// buffer, and sends it in one Write.
func (ac *AsyncClient) writer() {
	defer close(ac.writerDone)
	var spare []byte
	for {
		select {
		case <-ac.kick:
		case <-ac.broken:
			return
		}
		ac.wmu.Lock()
		batch := ac.out
		ac.out = spare[:0]
		ac.wmu.Unlock()
		if len(batch) > 0 {
			if _, err := ac.conn.Write(batch); err != nil {
				// The connection is gone: fail every pending call — each is
				// delivered on its done channel with the error.
				ac.fail(&connError{fmt.Errorf("smrd: send: %w", err)})
				return
			}
		}
		spare = batch
	}
}

// reader is the connection's single response-reading goroutine.
func (ac *AsyncClient) reader() {
	defer close(ac.readerDone)
	fr := newFrameReader(ac.conn, nil)
	for {
		frame, err := fr.next()
		if err != nil {
			ac.fail(&connError{fmt.Errorf("smrd: recv: %w", err)})
			return
		}
		id, status, body, err := parseResponseV2(frame)
		if err != nil {
			ac.fail(&connError{err})
			return
		}
		ac.mu.Lock()
		call := ac.pending[id]
		delete(ac.pending, id)
		ac.mu.Unlock()
		if call == nil {
			ac.fail(&connError{fmt.Errorf("smrd: response for unknown request id %d", id)})
			return
		}
		call.status = status
		if len(body) > 0 {
			// Copy out of the read scratch: the next frame reuses it.
			call.body = append([]byte(nil), body...)
		}
		<-ac.slots
		call.done <- call
	}
}

// fail marks the client broken and completes every pending call with
// err. Idempotent; safe from the reader and from a failed sender.
func (ac *AsyncClient) fail(err error) {
	ac.mu.Lock()
	if ac.err == nil {
		ac.err = err
		close(ac.broken)
	}
	calls := make([]*Call, 0, len(ac.pending))
	for id, call := range ac.pending {
		calls = append(calls, call)
		delete(ac.pending, id)
	}
	ac.mu.Unlock()
	for _, call := range calls {
		call.err = err
		<-ac.slots
		call.done <- call
	}
}

// stickyErr returns the recorded transport failure (or ErrClientClosed).
func (ac *AsyncClient) stickyErr() error {
	ac.mu.Lock()
	defer ac.mu.Unlock()
	if ac.err != nil {
		return ac.err
	}
	return ErrClientClosed
}
