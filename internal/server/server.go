package server

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"smrseek/internal/fault"
	"smrseek/internal/journal"
	"smrseek/internal/volume"
)

// ReplHooks is the server's view of a replication node (see
// internal/repl). A nil hooks set means a standalone daemon: every data
// op is served, ship is answered from the volume's journal directly,
// tail degenerates to an immediate ship, and acks are dropped.
//
// The interface lives here (not in internal/repl) because repl imports
// this package for its client side; the server only ever calls through
// these methods.
type ReplHooks interface {
	// Role reports the node's current role, epoch and positions.
	Role() RoleInfo
	// Epoch returns the node's fencing epoch.
	Epoch() uint64
	// AcceptingData reports whether data ops (read/write/stat/...) may be
	// served: true on an unfenced primary, false on followers and on a
	// demoted ex-primary.
	AcceptingData() bool
	// GateWrite blocks until the write covering journal watermark seq on
	// vol has replicated per the node's policy, or a bounded degrade
	// window expires. Called on the connection's writer after the write
	// executed and before its acknowledgment is sent.
	GateWrite(vol string, seq int64)
	// WaitTail blocks until vol plausibly has sealed bytes past
	// (gen, off) — force-sealing a lagging tail as needed — or a bounded
	// poll window expires. The caller then ships whatever is there.
	WaitTail(ctx context.Context, vol string, gen uint64, off int64)
	// Ack records a follower's applied position (gen, off) on vol.
	Ack(vol string, gen uint64, off int64)
	// Promote turns a follower into the serving primary (verified
	// recovery, epoch bump). Idempotent on a node that is already
	// primary.
	Promote() (RoleInfo, error)
}

// Options tunes the server; the zero value is usable.
type Options struct {
	// RequestTimeout bounds one request's execution once admitted to a
	// volume queue (0 = no bound). On expiry the client gets
	// StatusTimeout and the connection stays open — responses are
	// matched by ID, so the late result is harmless. The request is
	// still queued and will execute; its result is drained and counted
	// (see Abandoned).
	RequestTimeout time.Duration
	// MaxWindow caps the per-connection in-flight window granted to
	// clients (0 = DefaultMaxWindow).
	MaxWindow int
	// Repl attaches replication behavior (nil = standalone).
	Repl ReplHooks
	// Logf receives connection-level diagnostics (nil = log.Printf).
	Logf func(format string, args ...any)
}

// Server accepts smrd protocol connections and executes their requests
// against a volume.Manager. A reader and a writer goroutine per
// connection (conn.go); each volume's actor serializes execution, so any
// number of connections is safe.
type Server struct {
	mgr  atomic.Pointer[volume.Manager]
	opts Options
	ln   net.Listener

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	abandoned atomic.Int64

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// New builds a server over mgr and starts accepting on ln. It takes
// ownership of ln. mgr may be nil — an unpromoted follower has no open
// volumes — in which case every volume op is rejected with
// StatusNotPrimary until SetManager installs one.
func New(mgr *volume.Manager, ln net.Listener, opts Options) *Server {
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:   opts,
		ln:     ln,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
	s.mgr.Store(mgr)
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// SetManager installs (or replaces) the volume set the server executes
// against. Promotion uses it to begin serving the recovered volumes.
func (s *Server) SetManager(mgr *volume.Manager) { s.mgr.Store(mgr) }

// Manager returns the currently installed volume set (nil before
// promotion on a follower).
func (s *Server) Manager() *volume.Manager { return s.mgr.Load() }

// Abandoned returns how many timed-out or shutdown-abandoned requests
// have since completed and had their results drained in the background.
func (s *Server) Abandoned() int64 { return s.abandoned.Load() }

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every live connection and waits for the
// handlers to exit. It does NOT close the manager: the caller owns
// volume shutdown ordering (server first, then manager, so no request
// can race a closing volume).
func (s *Server) Close() error {
	s.cancel()
	err := s.ln.Close()
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.ctx.Err() == nil {
				s.opts.Logf("smrd: accept: %v", err)
			}
			return
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// isDataOp reports whether op reads or mutates volume state (as opposed
// to the replication/control ops followers must serve).
func isDataOp(op uint8) bool {
	switch op {
	case OpWrite, OpRead, OpStat, OpSnapshot, OpVerify, OpProof:
		return true
	}
	return false
}

// roleInfo builds the node's RoleInfo: from the hooks when present,
// otherwise a standalone daemon reporting itself primary at epoch 0.
func (s *Server) roleInfo() RoleInfo {
	if s.opts.Repl != nil {
		return s.opts.Repl.Role()
	}
	return RoleInfo{Role: "primary", Volumes: map[string]ReplPosition{}}
}

// statusOf maps volume/journal/fault errors onto wire status codes.
func statusOf(err error) uint8 {
	switch {
	case errors.Is(err, volume.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, volume.ErrClosed):
		return StatusInternal
	case errors.Is(err, volume.ErrNoJournal):
		return StatusNoJournal
	case errors.Is(err, journal.ErrCrashed):
		return StatusCrashed
	case errors.Is(err, journal.ErrCorrupt):
		return StatusCorrupt
	case errors.Is(err, journal.ErrUnsealed):
		return StatusBadRequest
	case errors.Is(err, journal.ErrStaleSource):
		return StatusNotPrimary
	case fault.IsMedia(err):
		return StatusMediaError
	case fault.IsTransient(err):
		return StatusTransient
	default:
		return StatusInternal
	}
}

// isClosedConn reports whether err is the normal end of a connection:
// clean EOF or a read racing our own Close.
func isClosedConn(err error) bool {
	return errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}
