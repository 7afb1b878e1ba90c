package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
	"smrseek/internal/volume"
)

// newTestServer starts a server over freshly opened volumes and returns
// it with its dial address. Everything is torn down with the test.
func newTestServer(t *testing.T, opts Options, cfgs ...volume.Config) (*Server, *volume.Manager, string) {
	t.Helper()
	mgr, err := volume.OpenAll(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		mgr.Close()
		t.Fatal(err)
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	srv := New(mgr, ln, opts)
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return srv, mgr, ln.Addr().String()
}

// replay streams recs to the named volume with ac's whole window in
// flight and returns how many completed. Requests are sent in trace
// order, so with a window no deeper than the volume's queue the replay is
// as deterministic as a synchronous one. The first error stops the
// stream once the requests in flight have drained.
func replay(ac *AsyncClient, vol string, recs []trace.Record) (int64, error) {
	done := make(chan *Call, ac.Window())
	var n, inflight int64
	var firstErr error
	reap := func(call *Call) {
		inflight--
		if _, err := call.Result(); err == nil {
			n++
		} else if firstErr == nil {
			firstErr = err
		}
	}
	for _, rec := range recs {
		for len(done) > 0 {
			reap(<-done)
		}
		if firstErr != nil {
			break
		}
		if _, err := ac.SubmitStep(vol, rec, done); err != nil {
			firstErr = err
			break
		}
		inflight++
	}
	for inflight > 0 {
		reap(<-done)
	}
	return n, firstErr
}

func lsConfig(name string) volume.Config {
	return volume.Config{
		Name: name,
		Sim:  core.Config{LogStructured: true, FrontierStart: 1 << 20},
	}
}

func TestWireRoundTrip(t *testing.T) {
	cases := []request{
		{Op: OpWrite, Volume: "v0", Extent: geom.Ext(12345, 64)},
		{Op: OpRead, Volume: "a-much-longer-volume-name", Extent: geom.Ext(0, 1)},
		{Op: OpStat, Volume: "v"},
	}
	for i, want := range cases {
		frame, err := appendRequestV2(nil, uint64(i+1), want)
		if err != nil {
			t.Fatalf("append %+v: %v", want, err)
		}
		// Strip the length prefix, as the server-side read loop does.
		n := binary.LittleEndian.Uint32(frame)
		if int(n) != len(frame)-4 {
			t.Fatalf("length prefix %d, frame body %d", n, len(frame)-4)
		}
		id, got, err := parseRequestV2(frame[4:], nil)
		if err != nil {
			t.Fatalf("parse %+v: %v", want, err)
		}
		if id != uint64(i+1) || got != want {
			t.Errorf("round trip: got id %d %+v want id %d %+v", id, got, i+1, want)
		}
	}
}

func TestWireRejectsMalformed(t *testing.T) {
	bad := [][]byte{
		{},                                  // too short
		{OpWrite},                           // no vlen
		{OpWrite, 5, 'a'},                   // truncated name
		{OpWrite, 1, 'a', 1, 2, 3},          // truncated extent
		{OpStat, 1, 'a', 0},                 // trailing bytes on stat
		{4, 1, 'a'},                         // retired op 4 (snapshot), well formed as it was
		{5, 1, 'a'},                         // retired op 5 (verify), well formed as it was
		{6, 1, 'a', 7, 0, 0, 0, 0, 0, 0, 0}, // retired op 6 (proof), well formed as it was
		append([]byte{7, 1, 'a'}, make([]byte, 16)...), // retired op 7 (ship), well formed as it was
		{10, 0}, // retired op 10 (role), bare
		{99, 0}, // unknown op
		binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(
			[]byte{OpWrite, 1, 'a'}, math.MaxInt64-10), 100), // extent end overflows int64
	}
	for _, p := range bad {
		if _, err := parseRequest(p, nil); err == nil {
			t.Errorf("parseRequest(%v) accepted malformed frame", p)
		}
	}
	if _, err := appendRequestV2(nil, 1, request{Op: OpStat, Volume: strings.Repeat("x", 300)}); err == nil {
		t.Error("appendRequestV2 accepted an over-long volume name")
	}
}

func TestStatusName(t *testing.T) {
	if got := StatusName(StatusOverloaded); got != "overloaded" {
		t.Errorf("StatusName(StatusOverloaded) = %q", got)
	}
	if got := StatusName(200); got != "status(200)" {
		t.Errorf("StatusName(200) = %q", got)
	}
	// Retired statuses keep their numbers reserved: 5, 6, 7 and 10 are
	// unnamed and the later statuses did not shift.
	if StatusTimeout != 8 || StatusInternal != 9 || StatusName(5) != "status(5)" ||
		StatusName(6) != "status(6)" || StatusName(7) != "status(7)" || StatusName(10) != "status(10)" {
		t.Errorf("status numbering shifted: timeout %d, internal %d, 5 %q, 6 %q, 7 %q, 10 %q",
			StatusTimeout, StatusInternal, StatusName(5), StatusName(6), StatusName(7), StatusName(10))
	}
}

func TestServerReadWriteStat(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("v0"))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two non-adjacent writes separated by an interleaved one land at
	// split log positions, so the spanning read resolves to 2 fragments.
	for _, ext := range []geom.Extent{geom.Ext(0, 8), geom.Ext(100, 8), geom.Ext(8, 8)} {
		if err := write(c, "v0", ext); err != nil {
			t.Fatalf("Write(%v): %v", ext, err)
		}
	}
	frags, err := read(c, "v0", geom.Ext(0, 16))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if frags != 2 {
		t.Errorf("Read frags = %d, want 2", frags)
	}
	st, err := c.Stat("v0")
	if err != nil {
		t.Fatalf("Stat: %v", err)
	}
	if st.Writes != 3 || st.Reads != 1 {
		t.Errorf("Stat counts writes=%d reads=%d, want 3/1", st.Writes, st.Reads)
	}
	if !reflectZero(st.Config) {
		t.Error("Stat carried a non-zero Config across the wire")
	}
}

func reflectZero(c core.Config) bool { return c == (core.Config{}) }

// write and read send one request on c and wait for its response, as
// Client.Stat does.
func write(c *Client, vol string, ext geom.Extent) error {
	_, err := c.roundTrip(request{Op: OpWrite, Volume: vol, Extent: ext})
	return err
}

func read(c *Client, vol string, ext geom.Extent) (int, error) {
	body, err := c.roundTrip(request{Op: OpRead, Volume: vol, Extent: ext})
	if err != nil {
		return 0, err
	}
	if len(body) != 4 {
		return 0, fmt.Errorf("read response body %d bytes, want 4", len(body))
	}
	return int(binary.LittleEndian.Uint32(body)), nil
}

func TestServerUnknownVolumeAndRetiredOp(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("v0"))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	err = write(c, "nope", geom.Ext(0, 8))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusUnknownVolume {
		t.Errorf("write to unknown volume: err = %v, want StatusUnknownVolume", err)
	}
	// The connection must survive an error response.
	if err := write(c, "v0", geom.Ext(0, 8)); err != nil {
		t.Fatalf("Write after error response: %v", err)
	}

	// Op 4, the retired snapshot op, is answered bad-request under its
	// own ID, and the connection serves the next request.
	conn := rawDial(t, addr)
	fr := newFrameReader(conn, nil)
	for _, tc := range []struct {
		id     uint64
		req    request
		status uint8
	}{
		{44, request{Op: 4, Volume: "v0"}, StatusBadRequest},
		{45, request{Op: OpStat, Volume: "v0"}, StatusOK},
	} {
		frame, err := appendRequestV2(nil, tc.id, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frame); err != nil {
			t.Fatal(err)
		}
		resp, err := fr.next()
		if err != nil {
			t.Fatalf("op %d: no response: %v", tc.req.Op, err)
		}
		if id, status, _, err := parseResponseV2(resp); err != nil || id != tc.id || status != tc.status {
			t.Errorf("op %d answered id %d status %s (err %v), want id %d %s",
				tc.req.Op, id, StatusName(status), err, tc.id, StatusName(tc.status))
		}
	}
}

// rawDial opens a handshaken connection for hand-crafted frames.
func rawDial(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if _, err := clientHello(conn, 0); err != nil {
		t.Fatal(err)
	}
	return conn
}

func TestServerRejectsBadFrames(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("v0"))

	// Malformed request payload: error response, connection stays up.
	conn := rawDial(t, addr)
	if _, err := conn.Write(appendResponseV2(nil, 5, 99, nil)); err != nil { // ID 5, op 99, no vlen
		t.Fatal(err)
	}
	frame, err := newFrameReader(conn, nil).next()
	if err != nil {
		t.Fatalf("frame after bad op: %v", err)
	}
	if id, status, _, err := parseResponseV2(frame); err != nil || id != 5 || status != StatusBadRequest {
		t.Errorf("bad op answered id %d status %s (err %v), want id 5 bad-request", id, StatusName(status), err)
	}

	// Oversize frame: the server drops the connection without reading it.
	conn2 := rawDial(t, addr)
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := conn2.Write(hdr[:]); err != nil {
		t.Fatal(err)
	}
	conn2.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := io.ReadAll(conn2); err != nil {
		t.Fatalf("expected clean close after oversize frame, got %v", err)
	}

	// Bad handshake magic: dropped before any frame.
	conn3, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn3.Close()
	if _, err := conn3.Write([]byte("NOPE\x02\x00\x00")); err != nil {
		t.Fatal(err)
	}
	conn3.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf, _ := io.ReadAll(conn3)
	if len(buf) != 0 {
		t.Errorf("server answered a bad magic with %d bytes", len(buf))
	}
}

// TestRetiredOpRefused: ops 5 and 6 (the retired verify and proof ops)
// and op 10 (the retired role op) are reserved codes. Each is answered
// bad-request under its own request ID, even when well formed as it
// was and aimed at a journaled volume, and the same connection then
// serves a write.
func TestRetiredOpRefused(t *testing.T) {
	jcfg := lsConfig("v0")
	jcfg.JournalDir = t.TempDir()
	_, _, addr := newTestServer(t, Options{}, jcfg)
	conn := rawDial(t, addr)
	// A request frame is laid out as a response frame whose status byte
	// is the op: ID, op, then the volume name and body.
	frames := appendResponseV2(nil, 5, 5, []byte{2, 'v', '0'})                                        // verify v0
	frames = appendResponseV2(frames, 6, 6, binary.LittleEndian.AppendUint64([]byte{2, 'v', '0'}, 1)) // proof of record 1
	frames = appendResponseV2(frames, 7, 10, []byte{0})                                               // op 10, empty volume name
	frames, err := appendRequestV2(frames, 8, request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(0, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr := newFrameReader(conn, nil)
	got := make(map[uint64]uint8, 4)
	for range 4 {
		frame, err := fr.next()
		if err != nil {
			t.Fatalf("response: %v", err)
		}
		id, status, _, err := parseResponseV2(frame)
		if err != nil {
			t.Fatal(err)
		}
		got[id] = status
	}
	for id, op := range map[uint64]int{5: 5, 6: 6, 7: 10} {
		if st, ok := got[id]; !ok || st != StatusBadRequest {
			t.Errorf("op %d answered %v, want id %d bad-request", op, got, id)
		}
	}
	if st, ok := got[8]; !ok || st != StatusOK {
		t.Errorf("write after the retired ops answered %v, want id 8 ok", got)
	}
}

// TestV1HelloRefused: a client speaking the retired version 1 sends a
// 5-byte hello and no window. The server must hang up without writing a
// byte — not wait for window bytes that never come — log the version,
// and leave every volume untouched.
func TestV1HelloRefused(t *testing.T) {
	var (
		mu   sync.Mutex
		logs []string
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}
	_, mgr, addr := newTestServer(t, Options{Logf: logf}, lsConfig("v0"))
	v, _ := mgr.Get("v0")
	stats := func() core.Stats {
		done := make(chan volume.Result, 1)
		if err := v.TryDo(volume.Request{Kind: volume.OpStat}, done); err != nil {
			t.Fatal(err)
		}
		return *(<-done).Stats
	}
	before := stats()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(Magic + "\x01")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf, err := io.ReadAll(conn)
	if err != nil {
		t.Fatalf("v1 hello: %v, want the server to close the connection", err)
	}
	if len(buf) != 0 {
		t.Errorf("server answered a v1 hello with %q", buf)
	}
	mu.Lock()
	logged := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(logged, "client version 1") {
		t.Errorf("log does not name version 1: %q", logged)
	}
	if after := stats(); after != before {
		t.Errorf("v1 hello changed the volume's stats:\n before %+v\n after  %+v", before, after)
	}
}

// TestOverflowingWriteKeepsJournaledVolume: a write whose extent end
// overflows int64 is well framed, so it gets bad-request on a live
// connection. It must never reach the journal, whose error would be
// sticky and fail every later request on the volume.
func TestOverflowingWriteKeepsJournaledVolume(t *testing.T) {
	cfg := lsConfig("v0")
	cfg.JournalDir = t.TempDir()
	_, _, addr := newTestServer(t, Options{}, cfg)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = write(c, "v0", geom.Ext(math.MaxInt64-10, 100))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusBadRequest {
		t.Fatalf("overflowing write: %v, want bad-request", err)
	}
	if err := write(c, "v0", geom.Ext(0, 8)); err != nil {
		t.Fatalf("write after the overflowing one: %v", err)
	}
	if _, err := read(c, "v0", geom.Ext(0, 8)); err != nil {
		t.Fatalf("read after the overflowing write: %v", err)
	}
}

// stallVolume blocks v's actor by handing it a request whose result
// channel is already full, then fills the queue with one parked request.
// The returned release function unblocks everything and returns once
// the parked request has executed, so a depth-1 queue has room again.
// Calling it more than once is harmless.
func stallVolume(t *testing.T, v *volume.Volume) (release func()) {
	t.Helper()
	stall := make(chan volume.Result, 1)
	stall <- volume.Result{} // actor will block delivering into this
	if err := v.TryDo(volume.Request{Kind: volume.OpStat}, stall); err != nil {
		t.Fatal(err)
	}
	// Once the actor has dequeued the stall request it blocks, freeing
	// the single queue slot; park a second request there.
	parked := make(chan volume.Result, 1)
	for {
		err := v.TryDo(volume.Request{Kind: volume.OpStat}, parked)
		if err == nil {
			break
		}
		if !errors.Is(err, volume.ErrOverloaded) {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			<-stall // actor's blocked send completes; queue drains
			<-parked
		})
	}
}

// TestWindowOverrunShedByID: a client that writes more frames than its
// granted window, back to back, has the excess shed with overloaded —
// each answer carrying its own request ID — while the admitted ones
// wait for the volume and then succeed, and the connection stays up.
func TestWindowOverrunShedByID(t *testing.T) {
	_, mgr, addr := newTestServer(t, Options{}, lsConfig("v0"))
	v, _ := mgr.Get("v0")
	release := stallVolume(t, v)
	defer release()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const window, n = 4, 16
	if got, err := clientHello(conn, window); err != nil || got != window {
		t.Fatalf("hello: window %d, err %v; want %d", got, err, window)
	}
	var frames []byte
	for id := uint64(1); id <= n; id++ {
		if frames, err = appendRequestV2(frames, id, request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(geom.Sector(id*8), 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	fr := newFrameReader(conn, nil)
	// collect reads k responses and returns their IDs, requiring status
	// want (and, when non-empty, body msg) of each.
	collect := func(k int, want uint8, msg string) map[uint64]bool {
		t.Helper()
		ids := make(map[uint64]bool, k)
		for i := 0; i < k; i++ {
			frame, err := fr.next()
			if err != nil {
				t.Fatalf("response %d: %v", i, err)
			}
			id, status, body, err := parseResponseV2(frame)
			if err != nil || status != want || (msg != "" && string(body) != msg) {
				t.Fatalf("response %d: id %d %s %q (err %v), want %s %q", i, id, StatusName(status), body, err, StatusName(want), msg)
			}
			if ids[id] {
				t.Fatalf("id %d answered twice", id)
			}
			ids[id] = true
		}
		return ids
	}
	shed := collect(n-window, StatusOverloaded, "connection window exceeded")
	for id := uint64(window + 1); id <= n; id++ {
		if !shed[id] {
			t.Errorf("request %d was not shed; shed %v", id, shed)
		}
	}
	release()
	ok := collect(window, StatusOK, "")
	for id := uint64(1); id <= window; id++ {
		if !ok[id] {
			t.Errorf("request %d was not answered ok; ok %v", id, ok)
		}
	}
	// The connection is still in service.
	more, err := appendRequestV2(nil, n+1, request{Op: OpRead, Volume: "v0", Extent: geom.Ext(8, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(more); err != nil {
		t.Fatal(err)
	}
	if ids := collect(1, StatusOK, ""); !ids[n+1] {
		t.Errorf("follow-up answered with ids %v, want %d", ids, n+1)
	}
}

func TestServerBackpressure(t *testing.T) {
	cfg := lsConfig("v0")
	cfg.QueueDepth = 1
	_, mgr, addr := newTestServer(t, Options{}, cfg)
	v, _ := mgr.Get("v0")
	release := stallVolume(t, v)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = write(c, "v0", geom.Ext(0, 8))
	if !IsOverloaded(err) {
		t.Errorf("write to saturated volume: err = %v, want overloaded", err)
	}
	release()
	// After draining, the same connection works again.
	if err := write(c, "v0", geom.Ext(0, 8)); err != nil {
		t.Fatalf("Write after release: %v", err)
	}
}

// TestServerRequestTimeout pins that a timeout is per request, not per
// connection: on one pipelined connection a request to a stalled volume
// times out while a request to a healthy volume, submitted after it,
// succeeds; and the timed-out request still executes once the volume
// frees, its late result drained and dropped rather than left wedged.
func TestServerRequestTimeout(t *testing.T) {
	_, mgr, addr := newTestServer(t, Options{RequestTimeout: 30 * time.Millisecond}, lsConfig("v0"), lsConfig("v1"))
	v, _ := mgr.Get("v0")
	release := stallVolume(t, v)
	defer release()

	ac, err := DialAsync(addr, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	if ac.Window() < 2 {
		t.Fatalf("granted window %d, want >= 2", ac.Window())
	}
	done := make(chan *Call, 2)
	stalled, err := ac.submit(request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(0, 8)}, done)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := ac.submit(request{Op: OpWrite, Volume: "v1", Extent: geom.Ext(0, 8)}, done)
	if err != nil {
		t.Fatal(err)
	}
	for range 2 {
		call := <-done
		_, err := call.Result()
		switch call.ID {
		case stalled.ID:
			var se *StatusError
			if !errors.As(err, &se) || se.Status != StatusTimeout {
				t.Errorf("stalled write: err = %v, want StatusTimeout", err)
			}
		case healthy.ID:
			if err != nil {
				t.Errorf("write to healthy volume beside a timeout: %v", err)
			}
		default:
			t.Fatalf("response for unknown ID %d", call.ID)
		}
	}
	release()
	// A write queued behind the timed-out one answers only after the
	// stalled request executed, and its late result is dropped, not
	// answered: the next response is the new write's.
	next, err := ac.submit(request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(8, 8)}, done)
	if err != nil {
		t.Fatal(err)
	}
	if call := <-done; call.ID != next.ID {
		t.Fatalf("response for ID %d after release, want only the new write's %d", call.ID, next.ID)
	} else if _, err := call.Result(); err != nil {
		t.Fatalf("write queued behind the timed-out one: %v", err)
	}
}

// TestServerRequestTimeoutV2 pins the SMRD2 timeout contract: the
// connection survives — responses are matched by ID, so a late result
// is discarded without corrupting anything — and the window seat is
// freed once the stalled request finally executes.
func TestServerRequestTimeoutV2(t *testing.T) {
	_, mgr, addr := newTestServer(t, Options{RequestTimeout: 30 * time.Millisecond}, lsConfig("v0"))
	v, _ := mgr.Get("v0")
	release := stallVolume(t, v)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = write(c, "v0", geom.Ext(0, 8))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusTimeout {
		t.Fatalf("stalled write: err = %v, want StatusTimeout", err)
	}
	release()
	// The same connection keeps working once the abandoned request has
	// drained and released its window seat. Until then a window=1
	// connection sheds, which is retryable.
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := write(c, "v0", geom.Ext(0, 8))
		if err == nil {
			break
		}
		if !IsOverloaded(err) {
			t.Fatalf("write after timeout: %v, want success or overloaded", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("window seat never freed after timeout: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerTimeoutDrainsAbandoned is the regression test for the
// timed-out request leak: the request is still queued and will
// execute, so its result must be drained in the background — otherwise
// the volume actor blocks forever delivering into a channel nobody
// reads, wedging the volume for every later client.
func TestServerTimeoutDrainsAbandoned(t *testing.T) {
	_, mgr, addr := newTestServer(t, Options{RequestTimeout: 30 * time.Millisecond}, lsConfig("v0"))
	v, _ := mgr.Get("v0")
	release := stallVolume(t, v)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	err = write(c, "v0", geom.Ext(0, 8))
	var se *StatusError
	if !errors.As(err, &se) || se.Status != StatusTimeout {
		t.Fatalf("stalled write: err = %v, want StatusTimeout", err)
	}
	// Until the stalled request executes and its result drains, it holds
	// the window-1 connection's only seat.
	if err := write(c, "v0", geom.Ext(0, 8)); !IsOverloaded(err) {
		t.Fatalf("write beside the undrained request: %v, want overloaded", err)
	}
	release()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := write(c, "v0", geom.Ext(0, 8))
		if err == nil {
			break
		}
		if !IsOverloaded(err) || time.Now().After(deadline) {
			t.Fatalf("write after release: %v (result never drained)", err)
		}
		time.Sleep(time.Millisecond)
	}
	// The drained volume still serves: a fresh connection works.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := write(c2, "v0", geom.Ext(0, 8)); err != nil {
		t.Fatalf("write after abandoned drain: %v", err)
	}
}

func TestServerConcurrentClients(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("a"), lsConfig("b"))
	const clients = 4
	errc := make(chan error, clients)
	for i := 0; i < clients; i++ {
		vol := "a"
		if i%2 == 1 {
			vol = "b"
		}
		go func(vol string, seed int64) {
			c, err := Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer c.Close()
			for op := int64(0); op < 200; op++ {
				ext := geom.Ext(geom.Sector((seed*1000+op*8)%100000), 8)
				if op%4 == 3 {
					if _, err := read(c, vol, ext); err != nil {
						errc <- err
						return
					}
				} else if err := write(c, vol, ext); err != nil {
					errc <- err
					return
				}
			}
			errc <- nil
		}(vol, int64(i))
	}
	for i := 0; i < clients; i++ {
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
	}
}

// TestClientStepDoesNotRetryOverload: a step the client submits to a
// saturated volume comes back overloaded; retrying is the load driver's
// call, not the client's.
func TestClientStepDoesNotRetryOverload(t *testing.T) {
	cfg := lsConfig("v0")
	cfg.QueueDepth = 1
	_, mgr, addr := newTestServer(t, Options{}, cfg)
	v, _ := mgr.Get("v0")
	release := stallVolume(t, v)
	defer release()

	ac, err := DialAsync(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	done := make(chan *Call, 1)
	if _, err := ac.SubmitStep("v0", trace.Record{Kind: disk.Write, Extent: geom.Ext(0, 8)}, done); err != nil {
		t.Fatal(err)
	}
	if _, err := (<-done).Result(); !IsOverloaded(err) {
		t.Fatalf("step to saturated volume: %v, want overloaded", err)
	}
}
