package server

import (
	"context"
	"errors"
	"io"
	"log"
	"net"
	"sync"
	"time"

	"smrseek/internal/journal"
	"smrseek/internal/volume"
)

// Options tunes the server; the zero value is usable.
type Options struct {
	// RequestTimeout bounds one request's execution once admitted to a
	// volume queue (0 = no bound). On expiry the client gets
	// StatusTimeout and the connection stays open — responses are
	// matched by ID, so the late result is harmless. The request is
	// still queued and will execute; its result is drained and dropped.
	RequestTimeout time.Duration
	// MaxWindow caps the per-connection in-flight window granted to
	// clients (0 = DefaultMaxWindow).
	MaxWindow int
	// Logf receives connection-level diagnostics (nil = log.Printf).
	Logf func(format string, args ...any)
}

// Server accepts smrd protocol connections and executes their requests
// against a volume.Manager. A reader and a writer goroutine per
// connection (conn.go); each volume's actor serializes execution, so any
// number of connections is safe.
type Server struct {
	mgr  *volume.Manager
	opts Options
	ln   net.Listener

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// New builds a server over mgr and starts accepting on ln. It takes
// ownership of ln.
func New(mgr *volume.Manager, ln net.Listener, opts Options) *Server {
	if opts.Logf == nil {
		opts.Logf = log.Printf
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		mgr:    mgr,
		opts:   opts,
		ln:     ln,
		ctx:    ctx,
		cancel: cancel,
		conns:  make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

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

// statusOf maps volume and journal errors onto wire status codes.
func statusOf(err error) uint8 {
	switch {
	case errors.Is(err, volume.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, volume.ErrClosed):
		return StatusInternal
	case errors.Is(err, journal.ErrCrashed):
		return StatusCrashed
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
