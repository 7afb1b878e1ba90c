package chaos

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// Proxy forwards smrd protocol connections to a backend and injects
// faults on command: Kill severs every live connection, Partition
// refuses new ones (and severs live ones) until healed, SetDelay adds
// per-response latency, and SetCorrupt mutates response frame payloads
// in flight — the corrupt-shipped-segment scenario.
//
// The server→client direction is forwarded frame-aware (the 7-byte
// hello verbatim, then length-prefixed frames) so corruption and delay
// hit whole response payloads; the client→server direction is a plain
// byte copy.
type Proxy struct {
	ln      net.Listener
	backend string

	mu      sync.Mutex
	conns   []net.Conn
	severed bool // partitioned: refuse new connections
	delay   time.Duration
	corrupt func(payload []byte)
}

// NewProxy listens on a fresh loopback port, forwarding to backend.
func NewProxy(backend string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, backend: backend}
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listen address.
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// Close stops listening and severs every live connection.
func (p *Proxy) Close() {
	p.ln.Close()
	p.Kill()
}

// Kill severs every live connection; new ones still connect (unless
// partitioned).
func (p *Proxy) Kill() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// Partition turns the link off (sever live connections, refuse new
// ones) or back on.
func (p *Proxy) Partition(on bool) {
	p.mu.Lock()
	p.severed = on
	p.mu.Unlock()
	if on {
		p.Kill()
	}
}

// SetDelay adds d of latency before each forwarded response frame.
func (p *Proxy) SetDelay(d time.Duration) {
	p.mu.Lock()
	p.delay = d
	p.mu.Unlock()
}

// SetCorrupt installs (or, with nil, removes) an in-flight mutation of
// response frame payloads. fn runs on every server→client payload after
// the handshake; mutate in place.
func (p *Proxy) SetCorrupt(fn func(payload []byte)) {
	p.mu.Lock()
	p.corrupt = fn
	p.mu.Unlock()
}

func (p *Proxy) serve() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		p.mu.Lock()
		severed := p.severed
		p.mu.Unlock()
		if severed {
			conn.Close()
			continue
		}
		up, err := net.Dial("tcp", p.backend)
		if err != nil {
			conn.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, conn, up)
		p.mu.Unlock()
		go func() { io.Copy(up, conn); up.Close() }()
		go func() { p.pumpResponses(conn, up); conn.Close() }()
	}
}

// pumpResponses forwards the server→client direction frame by frame,
// applying the configured delay and corruption.
func (p *Proxy) pumpResponses(dst io.Writer, src io.Reader) {
	// The server's hello precedes the framed stream: magic, version and
	// the granted window, 7 bytes.
	var hello [7]byte
	if _, err := io.ReadFull(src, hello[:]); err != nil {
		return
	}
	if _, err := dst.Write(hello[:]); err != nil {
		return
	}
	var hdr [4]byte
	for {
		if _, err := io.ReadFull(src, hdr[:]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > 64<<20 {
			return // nonsense length; drop the link
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(src, payload); err != nil {
			return
		}
		p.mu.Lock()
		delay, corrupt := p.delay, p.corrupt
		p.mu.Unlock()
		if corrupt != nil {
			corrupt(payload)
		}
		if delay > 0 {
			time.Sleep(delay)
		}
		if _, err := dst.Write(hdr[:]); err != nil {
			return
		}
		if _, err := dst.Write(payload); err != nil {
			return
		}
	}
}

// String implements fmt.Stringer for debugging.
func (p *Proxy) String() string {
	return fmt.Sprintf("chaos.Proxy(%s -> %s)", p.Addr(), p.backend)
}
