package server

import (
	"net"
	"testing"

	"smrseek/internal/geom"
)

// TestV2ServerSteadyStateAllocs pins the per-request allocation budget
// of the whole server-side v2 path — connection reader, volume actor,
// response writer — at steady state. The client half is a pre-encoded
// raw frame batch and a reused read buffer, so it allocates nothing;
// AllocsPerRun therefore sees (almost) only the server.
func TestV2ServerSteadyStateAllocs(t *testing.T) {
	_, _, addr := newTestServer(t, Options{}, lsConfig("a"))
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const batch = 64
	window, err := clientHello(conn, batch)
	if err != nil {
		t.Fatal(err)
	}
	if window != batch {
		t.Fatalf("negotiated window %d, want %d", window, batch)
	}
	var frames []byte
	for i := 0; i < batch; i++ {
		frames, err = appendRequestV2(frames, uint64(i+1), request{
			Op: OpWrite, Volume: "a",
			Extent: geom.Ext(geom.Sector((i*8)%(1<<18)), 8),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	fr := newFrameReader(conn, make([]byte, 64<<10))
	run := func() {
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < batch; i++ {
			frame, err := fr.next()
			if err != nil {
				t.Fatal(err)
			}
			if _, status, _, err := parseResponseV2(frame); err != nil || status != StatusOK {
				t.Fatalf("response %d: status %d, err %v", i, status, err)
			}
		}
	}
	// Warm the name cache, frame pools and the actor's batch path before
	// measuring.
	for i := 0; i < 5; i++ {
		run()
	}
	perBatch := testing.AllocsPerRun(20, run)
	if perReq := perBatch / batch; perReq > 2 {
		t.Errorf("server steady state allocates %.2f per request, want <= 2", perReq)
	}
}

// TestAsyncClientSteadyStateAllocs pins the AsyncClient's per-request
// allocation budget for the whole submit → write → read → deliver loop.
// The peer is a minimal allocation-free responder (hello, then one
// 4-byte read response per request frame), so AllocsPerRun sees only
// the client: the Call and the copy of its response body.
func TestAsyncClientSteadyStateAllocs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := serverHello(conn, 0); err != nil {
			return
		}
		fr := newFrameReader(conn, nil)
		names := make(nameCache)
		var out []byte
		frags := []byte{1, 0, 0, 0}
		for {
			p, err := fr.next()
			if err != nil {
				return
			}
			id, _, err := parseRequestV2(p, names)
			if err != nil {
				return
			}
			out = appendResponseV2(out[:0], id, StatusOK, frags)
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()

	const batch = 64
	ac, err := DialAsync(ln.Addr().String(), batch)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	done := make(chan *Call, batch)
	run := func() {
		for i := 0; i < batch; i++ {
			if _, err := ac.submit(request{Op: OpRead, Volume: "a", Extent: geom.Ext(geom.Sector(i*8), 8)}, done); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < batch; i++ {
			if body, err := (<-done).Result(); err != nil || len(body) != 4 {
				t.Fatalf("response %d: %d-byte body, err %v", i, len(body), err)
			}
		}
	}
	for i := 0; i < 5; i++ {
		run()
	}
	perBatch := testing.AllocsPerRun(20, run)
	if perReq := perBatch / batch; perReq > 2 {
		t.Errorf("client steady state allocates %.2f per request, want <= 2", perReq)
	}
}
