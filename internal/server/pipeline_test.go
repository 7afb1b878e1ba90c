package server

// Concurrency, leak and allocation coverage for the SMRD2 pipeline:
// out-of-order completion under load (run with -race), shutdown with
// requests in flight (exactly one outcome per submit), the
// late-result drain regression for timed-out pipelined requests, one
// response per request under shedding and timeouts, duplicate in-flight
// IDs, frame pool get/put balance, the zero-alloc codec hot path, and
// the client's coalescing writer (encode failures, concurrent
// submitters, teardown).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
	"smrseek/internal/volume"
)

// TestPipelineOutOfOrder hammers one server with 8 clients × window 32,
// each interleaving two volumes on one connection so responses genuinely
// complete out of order, and requires every call back exactly once with
// a sane body.
func TestPipelineOutOfOrder(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("a"), lsConfig("b"))
	const (
		clients = 8
		window  = 32
		ops     = 400
	)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			ac, err := DialAsync(addr, window)
			if err != nil {
				t.Error(err)
				return
			}
			defer ac.Close()
			if ac.Window() != window {
				t.Errorf("granted window %d, want %d", ac.Window(), window)
				return
			}
			done := make(chan *Call, window)
			inflight := 0
			reap := func(call *Call) {
				inflight--
				body, err := call.Result()
				if err != nil {
					t.Errorf("call %d op %d: %v", call.ID, call.Op, err)
					return
				}
				if call.Op == OpRead && len(body) != 4 {
					t.Errorf("read body %d bytes, want 4", len(body))
				}
			}
			for op := int64(0); op < ops; op++ {
				vol := "a"
				if (seed+op)%2 == 1 {
					vol = "b"
				}
				rec := trace.Record{Kind: disk.Write, Extent: geom.Ext(geom.Sector((seed*1000+op*8)%100000), 8)}
				if op%4 == 3 {
					rec.Kind = disk.Read
				}
				if _, err := ac.SubmitStep(vol, rec, done); err != nil {
					t.Errorf("submit: %v", err)
					return
				}
				inflight++
				for inflight == window {
					reap(<-done)
				}
			}
			for inflight > 0 {
				reap(<-done)
			}
		}(int64(i))
	}
	wg.Wait()
}

// TestPipelineShutdownInFlight closes the server while a stalled volume
// holds a full pipeline in flight: every submitted call must complete
// exactly once — a result, a shed, or a connection error — and nothing
// may hang.
func TestPipelineShutdownInFlight(t *testing.T) {
	srv, mgr, addr := newTestServer(t, Options{}, lsConfig("v0"))
	v, _ := mgr.Get("v0")
	release := stallVolume(t, v)
	defer release()

	const window = 16
	ac, err := DialAsync(addr, window)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()

	// A window-1 connection's one request rides along: same contract.
	ac1, err := DialAsync(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ac1.Close()

	done := make(chan *Call, window+1)
	var submitted int
	for i := 0; i < window; i++ {
		if _, err := ac.submit(request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(geom.Sector(i*8), 8)}, done); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		submitted++
	}
	if _, err := ac1.submit(request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(0, 8)}, done); err != nil {
		t.Fatalf("window-1 submit: %v", err)
	}
	submitted++
	go srv.Close()

	var completions int32
	timeout := time.After(10 * time.Second)
	for completions < int32(submitted) {
		select {
		case call := <-done:
			atomic.AddInt32(&completions, 1)
			if _, err := call.Result(); err != nil {
				var se *StatusError
				if !IsConnLost(err) && !errors.As(err, &se) {
					t.Errorf("call %d: unexpected outcome %v", call.ID, err)
				}
			}
		case <-timeout:
			t.Fatalf("only %d of %d calls completed after shutdown", completions, submitted)
		}
	}
	// Exactly once: no second delivery may be buffered.
	select {
	case call := <-done:
		t.Fatalf("call %d delivered twice", call.ID)
	default:
	}
}

// TestPipelinedTimeoutAbandonedDrain is the late-result drain regression
// for pipelined requests: a window full of timed-out writes must each
// get StatusTimeout, the connection must survive, and once the volume
// unsticks every late result must be drained, freeing its seat — not wedged
// in the completion channel.
func TestPipelinedTimeoutAbandonedDrain(t *testing.T) {
	_, mgr, addr := newTestServer(t, Options{RequestTimeout: 30 * time.Millisecond}, lsConfig("v0"))
	v, _ := mgr.Get("v0")
	release := stallVolume(t, v)

	const window = 8
	ac, err := DialAsync(addr, window)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()

	done := make(chan *Call, window)
	for i := 0; i < window; i++ {
		if _, err := ac.submit(request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(geom.Sector(i*8), 8)}, done); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i := 0; i < window; i++ {
		call := <-done
		_, err := call.Result()
		var se *StatusError
		if !errors.As(err, &se) || se.Status != StatusTimeout {
			t.Fatalf("call %d: %v, want StatusTimeout", call.ID, err)
		}
	}
	// The undrained requests still hold every seat.
	if _, err := ac.submit(request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(0, 8)}, done); err != nil {
		t.Fatal(err)
	}
	if _, err := (<-done).Result(); !IsOverloaded(err) {
		t.Fatalf("write beside %d undrained requests: %v, want overloaded", window, err)
	}
	release()
	// The connection survived the whole episode: the drained window
	// serves fresh requests.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := ac.submit(request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(0, 8)}, done); err != nil {
			t.Fatalf("submit after timeout drain: %v", err)
		}
		_, err := (<-done).Result()
		if err == nil {
			break
		}
		if !IsOverloaded(err) {
			t.Fatalf("write after timeout drain: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("window never freed after drain: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	// That write queued behind the timed-out ones, so every late result
	// has drained by its answer: the whole window is free again.
	for i := 0; i < window; i++ {
		if _, err := ac.submit(request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(geom.Sector(i*8), 8)}, done); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < window; i++ {
		if _, err := (<-done).Result(); err != nil {
			t.Errorf("write %d of a full window after the drain: %v", i, err)
		}
	}
}

// TestPipelineOneResponsePerRequest checks the reader/writer hand-off
// under shedding, timeouts and a hot pipeline at once: every request ID
// is answered exactly once, every answer is OK, overloaded or timeout,
// and no timed-out request's late result is ever answered.
// v0 (queue depth 1) and v1 are both stalled for the first burst, so v0
// sheds at its queue, v1 fills the window of 32 and times out, and the
// rest is shed at the window; the second burst runs after the release.
func TestPipelineOneResponsePerRequest(t *testing.T) {
	cfg := lsConfig("v0")
	cfg.QueueDepth = 1
	_, mgr, addr := newTestServer(t, Options{RequestTimeout: time.Millisecond}, cfg, lsConfig("v1"))
	v0, _ := mgr.Get("v0")
	v1, _ := mgr.Get("v1")
	release0, release1 := stallVolume(t, v0), stallVolume(t, v1)
	defer release0()
	defer release1()

	conn := rawDial(t, addr) // window 32
	conn.SetReadDeadline(time.Now().Add(20 * time.Second))
	fr := newFrameReader(conn, nil)
	answered := make(map[uint64]bool)
	counts := make(map[uint8]int)
	// burst sends IDs [from, to) alternating v0/v1, one Write, and reads
	// one response for each.
	burst := func(from, to uint64) {
		t.Helper()
		var frames []byte
		for id := from; id < to; id++ {
			vol := []string{"v0", "v1"}[id%2]
			var err error
			if frames, err = appendRequestV2(frames, id, request{Op: OpWrite, Volume: vol, Extent: geom.Ext(geom.Sector(id%4096*8), 8)}); err != nil {
				t.Fatal(err)
			}
		}
		werr := make(chan error, 1)
		go func() {
			_, err := conn.Write(frames)
			werr <- err
		}()
		for range to - from {
			frame, err := fr.next()
			if err != nil {
				t.Fatalf("after %d responses: %v", len(answered), err)
			}
			id, status, _, err := parseResponseV2(frame)
			if err != nil {
				t.Fatal(err)
			}
			if id < from || id >= to || answered[id] {
				t.Fatalf("id %d (%s) answered twice or never sent", id, StatusName(status))
			}
			answered[id] = true
			counts[status]++
		}
		if err := <-werr; err != nil {
			t.Fatalf("write burst: %v", err)
		}
	}
	burst(0, 128)
	if counts[StatusTimeout] != 32 || counts[StatusOverloaded] != 96 {
		t.Fatalf("stalled burst: %v, want 32 timeouts and 96 overloaded", counts)
	}
	release0()
	release1()
	burst(128, 4096)
	sum := counts[StatusOK] + counts[StatusOverloaded] + counts[StatusTimeout]
	if sum != len(answered) {
		t.Fatalf("statuses %v over %d responses, want only OK, overloaded and timeout", counts, len(answered))
	}
	// Half-closing makes the server drain every outstanding late result
	// before it closes the connection, so a late answer would show up
	// here, before EOF.
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	if frame, err := fr.next(); err == nil {
		id, status, _, _ := parseResponseV2(frame)
		t.Fatalf("id %d (%s) answered after every request had its answer", id, StatusName(status))
	} else if !errors.Is(err, io.EOF) {
		t.Fatalf("after half-close: %v, want EOF", err)
	}
	t.Logf("%d requests: %d ok, %d overloaded, %d timeout", len(answered), counts[StatusOK], counts[StatusOverloaded], counts[StatusTimeout])
}

// TestDuplicateInFlightIDRefused: a request reusing the ID of one still
// in flight on the connection is answered bad-request under that ID,
// and the first request is answered as usual.
func TestDuplicateInFlightIDRefused(t *testing.T) {
	_, mgr, addr := newTestServer(t, Options{}, lsConfig("v0"))
	v, _ := mgr.Get("v0")
	release := stallVolume(t, v)
	defer release()

	conn := rawDial(t, addr)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var frames []byte
	for range 2 {
		var err error
		if frames, err = appendRequestV2(frames, 7, request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(0, 8)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(frames); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(conn, nil)
	for _, want := range []uint8{StatusBadRequest, StatusOK} {
		if want == StatusOK {
			release()
		}
		frame, err := fr.next()
		if err != nil {
			t.Fatal(err)
		}
		id, status, body, err := parseResponseV2(frame)
		if err != nil || id != 7 || status != want {
			t.Fatalf("id %d %s %q (err %v), want id 7 %s", id, StatusName(status), body, err, StatusName(want))
		}
	}
}

// TestMalformedFramesAndPoolBalance sends broken frames at a live
// server: a frame with an ID but a bad op must come back
// StatusBadRequest with the connection intact; a frame too short to
// carry an ID must close the connection. Across the whole episode the
// frame pool's get/put counters must stay balanced — no path leaks a
// pooled buffer.
func TestMalformedFramesAndPoolBalance(t *testing.T) {
	gets0, puts0 := framePool.Stats()
	srv, _, addr := newTestServer(t, Options{}, lsConfig("v0"))

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	window, err := clientHello(conn, 4)
	if err != nil {
		t.Fatal(err)
	}
	if window != 4 {
		t.Fatalf("negotiated window %d, want 4", window)
	}

	// Bad op under a valid ID: clean error response, connection lives.
	frame := binary.LittleEndian.AppendUint32(nil, idSize+1)
	frame = binary.LittleEndian.AppendUint64(frame, 77)
	frame = append(frame, 0xEE) // unknown op
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	fr := newFrameReader(conn, nil)
	resp, err := fr.next()
	if err != nil {
		t.Fatalf("no response to bad op: %v", err)
	}
	id, status, _, err := parseResponseV2(resp)
	if err != nil || id != 77 || status != StatusBadRequest {
		t.Fatalf("bad-op response id=%d status=%d err=%v, want id=77 bad-request", id, status, err)
	}

	// A valid request still works on the same connection.
	req, err := appendRequestV2(nil, 78, request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(0, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(req); err != nil {
		t.Fatal(err)
	}
	resp, err = fr.next()
	if err != nil {
		t.Fatal(err)
	}
	if id, status, _, _ := parseResponseV2(resp); id != 78 || status != StatusOK {
		t.Fatalf("post-error write id=%d status=%d, want id=78 ok", id, status)
	}

	// Too short for an ID: the server must drop the link, not hang.
	short := binary.LittleEndian.AppendUint32(nil, 3)
	short = append(short, 1, 2, 3)
	if _, err := conn.Write(short); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := fr.next(); err == nil {
		t.Fatal("server answered a frame with no request ID, want closed connection")
	}

	srv.Close()
	gets1, puts1 := framePool.Stats()
	if got, put := gets1-gets0, puts1-puts0; got != put {
		t.Fatalf("frame pool leaked: %d gets, %d puts across the episode", got, put)
	}
}

// TestV2CodecAllocs pins the server hot path's allocation budget: once
// a volume name is interned, decoding a request and encoding its
// response must not allocate at all (the acceptance bar is ≤2 per
// request; the codec itself is zero).
func TestV2CodecAllocs(t *testing.T) {
	names := make(nameCache)
	frame, err := appendRequestV2(nil, 1, request{Op: OpWrite, Volume: "vol0", Extent: geom.Ext(4096, 64)})
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:]
	out := make([]byte, 0, 4096)
	if _, _, err := parseRequestV2(payload, names); err != nil {
		t.Fatal(err) // prime the name cache
	}
	var id uint64
	allocs := testing.AllocsPerRun(1000, func() {
		var req request
		id, req, err = parseRequestV2(payload, names)
		if err != nil {
			t.Fatal(err)
		}
		_ = req
		out = appendResponseV2(out[:0], id, StatusOK, nil)
		var body [4]byte
		binary.LittleEndian.PutUint32(body[:], 3)
		out = appendResponseV2(out, id, StatusOK, body[:])
	})
	if allocs > 0 {
		t.Errorf("v2 codec hot path allocates %.1f per request, want 0", allocs)
	}
}

// TestAsyncSubmitAfterClose pins the submit/close contract: submit on a
// closed client fails fast with ErrClientClosed or the sticky transport
// error — never a hang, never a nil Call delivery.
func TestAsyncSubmitAfterClose(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("v0"))
	ac, err := DialAsync(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	ac.Close()
	done := make(chan *Call, 1)
	if _, err := ac.submit(request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(0, 8)}, done); err == nil {
		t.Fatal("submit on a closed client succeeded")
	}
	select {
	case call := <-done:
		t.Fatalf("closed client delivered call %d", call.ID)
	default:
	}
}

// TestV2SingleConnReplayDeterminism: a pipelined replay on one
// connection dispatches in send order, so its volume stats must be
// bit-identical to a window-1 (synchronous) replay of the same trace —
// the determinism contract the conformance matrix relies on.
func TestV2SingleConnReplayDeterminism(t *testing.T) {
	recs := confTrace(t)
	run := func(window int) volume.Result {
		_, mgr, addr := newTestServer(t, Options{}, lsConfig("d0"))
		ac, err := DialAsync(addr, window)
		if err != nil {
			t.Fatal(err)
		}
		defer ac.Close()
		if _, err := replay(ac, "d0", recs); err != nil {
			t.Fatal(err)
		}
		v, _ := mgr.Get("d0")
		done := make(chan volume.Result, 1)
		if err := v.TryDo(volume.Request{Kind: volume.OpStat}, done); err != nil {
			t.Fatal(err)
		}
		return <-done
	}
	sync := run(1)
	pipe := run(64)
	if *sync.Stats != *pipe.Stats {
		t.Errorf("pipelined replay diverged from synchronous:\n sync %+v\n pipe %+v", *sync.Stats, *pipe.Stats)
	}
}

// TestAsyncClientEncodeFailureKeepsNeighbours: a request that fails to
// encode (an over-long volume name) between two valid ones must leave
// nothing of itself in the client's send buffer, so both valid requests
// reach the server intact and are answered. The encoder has already
// written the length prefix and ID when the name check fails.
func TestAsyncClientEncodeFailureKeepsNeighbours(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("v0"))
	long := strings.Repeat("x", MaxVolumeName+1)
	const rounds = 16
	ac, err := DialAsync(addr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	done := make(chan *Call, 2*rounds)
	exchanged := make(chan struct{})
	go func() {
		// A stray byte on the wire stalls the exchange, so it runs here
		// and the test goroutine bounds it.
		defer close(exchanged)
		for i := 0; i < rounds; i++ {
			ext := geom.Ext(geom.Sector(i*8), 8)
			if _, err := ac.submit(request{Op: OpWrite, Volume: "v0", Extent: ext}, done); err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if _, err := ac.submit(request{Op: OpWrite, Volume: long, Extent: ext}, done); err == nil {
				t.Errorf("a %d-byte volume name was accepted", len(long))
				return
			}
			if _, err := ac.submit(request{Op: OpRead, Volume: "v0", Extent: ext}, done); err != nil {
				t.Errorf("read %d: %v", i, err)
				return
			}
		}
		for i := 0; i < 2*rounds; i++ {
			call := <-done
			if _, err := call.Result(); err != nil {
				t.Errorf("call %d (op %d): %v", call.ID, call.Op, err)
				return
			}
		}
	}()
	select {
	case <-exchanged:
	case <-time.After(10 * time.Second):
		t.Fatal("valid requests around a rejected one went unanswered")
	}
}

// TestAsyncClientConcurrentSubmitters: 8 goroutines share one window-64
// client, each keeping 8 requests in flight. Every call must come back
// with its own response: half name a volume unique to the call, whose
// name the server echoes in its unknown-volume error.
func TestAsyncClientConcurrentSubmitters(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("v0"))
	ac, err := DialAsync(addr, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	const (
		submitters = 8
		batch      = 8
		batches    = 50
	)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			done := make(chan *Call, batch)
			want := make(map[*Call]string, batch) // "" = a write answered ok
			for b := 0; b < batches; b++ {
				for i := 0; i < batch; i++ {
					req := request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(geom.Sector((g*batches+b)*64+i*8), 8)}
					if i%2 == 1 {
						req.Volume = fmt.Sprintf("g%d-b%d-i%d", g, b, i)
					}
					call, err := ac.submit(req, done)
					if err != nil {
						t.Error(err)
						return
					}
					want[call] = ""
					if i%2 == 1 {
						want[call] = "unknown volume " + req.Volume
					}
				}
				for i := 0; i < batch; i++ {
					call := <-done
					msg, ok := want[call]
					if !ok {
						t.Errorf("submitter %d: call %d delivered twice or to the wrong channel", g, call.ID)
						return
					}
					delete(want, call)
					_, err := call.Result()
					var se *StatusError
					switch {
					case msg == "" && err != nil:
						t.Errorf("submitter %d: write call %d: %v", g, call.ID, err)
					case msg != "" && (!errors.As(err, &se) || se.Msg != msg):
						t.Errorf("submitter %d: call %d answered %v, want %q", g, call.ID, err, msg)
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestAsyncClientCloseLeavesNoWriter: Close stops the writer goroutine
// along with the reader, so dial/close cycles do not accumulate them.
func TestAsyncClientCloseLeavesNoWriter(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("v0"))
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		ac, err := DialAsync(addr, 8)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *Call, 1)
		if _, err := ac.submit(request{Op: OpWrite, Volume: "v0", Extent: geom.Ext(0, 8)}, done); err != nil {
			t.Fatal(err)
		}
		if _, err := (<-done).Result(); err != nil {
			t.Fatal(err)
		}
		ac.Close()
	}
	// The server's side of each connection winds down asynchronously.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after 100 dial/close cycles, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}
