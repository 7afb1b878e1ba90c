package server

// Protocol conformance: pipelining must be invisible at the payload
// level. Every op, driven through a client at window 1 and a client at
// window 64 against the same server build, must produce byte-identical
// response bodies — and the volume behind
// the wire must end bit-identical to a direct in-process run of the
// same script. The journal directory is recreated at the SAME path for
// every variant so path-bearing bodies (the verify audit) compare
// byte-for-byte too.

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/trace"
	"smrseek/internal/volume"
	"smrseek/internal/workload"
)

// confOps is the scripted op sequence following the trace replay, in
// order, with the status each must be answered with. Op 4, the retired
// snapshot op, is refused as bad-request and the stat after it is still
// served on the same connection.
var confOps = []struct {
	name   string
	req    request
	status uint8
}{
	{"write", request{Op: OpWrite, Volume: "cv", Extent: geom.Ext(1<<19, 16)}, StatusOK},
	{"read", request{Op: OpRead, Volume: "cv", Extent: geom.Ext(1<<19, 16)}, StatusOK},
	{"retired op 4", request{Op: 4, Volume: "cv"}, StatusBadRequest},
	{"stat", request{Op: OpStat, Volume: "cv"}, StatusOK},
}

func confVolume(dir string, frontier geom.Sector) volume.Config {
	return volume.Config{
		Name:       "cv",
		Sim:        core.Config{LogStructured: true, FrontierStart: frontier},
		JournalDir: dir,
		SealEvery:  8,
	}
}

func confTrace(t *testing.T) []trace.Record {
	t.Helper()
	p, err := workload.ByName("w91")
	if err != nil {
		t.Fatal(err)
	}
	recs := p.Generate(0.01)
	if len(recs) > 300 {
		recs = recs[:300]
	}
	if len(recs) == 0 {
		t.Fatal("empty conformance trace")
	}
	return recs
}

// runConfVariant executes the script through a client at one window and
// captures every response body plus the final wire Stats.
func runConfVariant(t *testing.T, dir string, recs []trace.Record, frontier geom.Sector, window int) (map[string][]byte, core.Stats) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	_, _, addr := newTestServer(t, Options{}, confVolume(dir, frontier))

	ac, err := DialAsync(addr, window)
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	if ac.Window() != window {
		t.Fatalf("negotiated window %d, want %d", ac.Window(), window)
	}

	// The replay keeps the whole negotiated window in flight; the ops
	// after it are strictly sequential.
	n, err := replay(ac, "cv", recs)
	if err != nil {
		t.Fatalf("pipelined replay (w%d): %v", window, err)
	}
	if n != int64(len(recs)) {
		t.Fatalf("replayed %d of %d records", n, len(recs))
	}

	bodies := make(map[string][]byte, len(confOps))
	done := make(chan *Call, 1)
	for _, op := range confOps {
		if _, err := ac.submit(op.req, done); err != nil {
			t.Fatalf("%s (w%d): %v", op.name, window, err)
		}
		call := <-done
		if call.err != nil || call.status != op.status {
			t.Fatalf("%s (w%d): answered %s (err %v), want %s",
				op.name, window, StatusName(call.status), call.err, StatusName(op.status))
		}
		bodies[op.name] = append([]byte(nil), call.body...)
	}
	var st core.Stats
	if err := json.Unmarshal(bodies["stat"], &st); err != nil {
		t.Fatalf("stat decode: %v", err)
	}
	return bodies, st
}

// runConfDirect executes the same script straight against the volume
// actor — no server, no wire — and returns the Stats at the point the
// script's stat op ran.
func runConfDirect(t *testing.T, dir string, recs []trace.Record, frontier geom.Sector) core.Stats {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	mgr, err := volume.OpenAll(confVolume(dir, frontier))
	if err != nil {
		t.Fatal(err)
	}
	defer mgr.Close()
	v, _ := mgr.Get("cv")
	done := make(chan volume.Result, 1)
	step := func(req volume.Request) volume.Result {
		t.Helper()
		if err := v.TryDo(req, done); err != nil {
			t.Fatal(err)
		}
		res := <-done
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	for _, rec := range recs {
		kind := volume.OpWrite
		if rec.Kind == disk.Read {
			kind = volume.OpRead
		}
		step(volume.Request{Kind: kind, Extent: rec.Extent})
	}
	step(volume.Request{Kind: volume.OpWrite, Extent: geom.Ext(1<<19, 16)})
	step(volume.Request{Kind: volume.OpRead, Extent: geom.Ext(1<<19, 16)})
	st := *step(volume.Request{Kind: volume.OpStat}).Stats
	st.Config = core.Config{}
	return st
}

func TestProtocolConformance(t *testing.T) {
	recs := confTrace(t)
	frontier := core.FrontierFor(recs)
	dir := filepath.Join(t.TempDir(), "conf")

	want := runConfDirect(t, dir, recs, frontier)

	variants := []struct {
		name   string
		window int
	}{
		{"v2-w1", 1},
		{"v2-w64", 64},
	}
	bodies := make(map[string]map[string][]byte, len(variants))
	for _, vr := range variants {
		b, st := runConfVariant(t, dir, recs, frontier, vr.window)
		bodies[vr.name] = b
		if !reflect.DeepEqual(st, want) {
			t.Errorf("%s: wire stats diverged from direct run:\n got %+v\nwant %+v", vr.name, st, want)
		}
	}

	// Byte-identical bodies across every variant, op by op.
	ref := bodies[variants[0].name]
	for _, vr := range variants[1:] {
		for _, op := range confOps {
			if !bytes.Equal(bodies[vr.name][op.name], ref[op.name]) {
				t.Errorf("%s: %s body diverged from %s:\n got %q\nwant %q",
					vr.name, op.name, variants[0].name, bodies[vr.name][op.name], ref[op.name])
			}
		}
	}
}
