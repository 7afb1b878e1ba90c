package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/server"
	"smrseek/internal/trace"
)

// step sends one record over ac, as smrload does, and returns the
// response body: a read's 4-byte fragment count, empty for a write.
func step(t *testing.T, ac *server.AsyncClient, vol string, kind disk.OpKind, ext geom.Extent) []byte {
	t.Helper()
	done := make(chan *server.Call, 1)
	if _, err := ac.SubmitStep(vol, trace.Record{Kind: kind, Extent: ext}, done); err != nil {
		t.Fatal(err)
	}
	body, err := (<-done).Result()
	if err != nil {
		t.Fatalf("%v %v on %s: %v", kind, ext, vol, err)
	}
	return body
}

// syncBuffer is a goroutine-safe output sink the test can poll while
// run() is live on another goroutine.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var listenRe = regexp.MustCompile(`listening on (\S+)`)

// startDaemon runs smrd on a background goroutine and waits for its
// listen address. The returned stop function shuts it down and returns
// run's error.
func startDaemon(t *testing.T, out *syncBuffer, args ...string) (addr string, stop func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- run(ctx, args, out) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if m := listenRe.FindStringSubmatch(out.String()); m != nil {
			addr = m[1]
			break
		}
		select {
		case err := <-errc:
			cancel()
			t.Fatalf("smrd exited before listening: %v\noutput:\n%s", err, out.String())
		default:
		}
		if time.Now().After(deadline) {
			cancel()
			t.Fatalf("no listen line in output:\n%s", out.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	return addr, func() error {
		cancel()
		select {
		case err := <-errc:
			return err
		case <-time.After(10 * time.Second):
			t.Fatal("smrd did not shut down")
			return nil
		}
	}
}

func TestDaemonServesAndSummarizes(t *testing.T) {
	var out syncBuffer
	addr, stop := startDaemon(t, &out, "-listen", "127.0.0.1:0", "-volumes", "a,b=defrag+cache")

	ac, err := server.DialAsync(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		step(t, ac, "a", disk.Write, geom.Ext(geom.Sector(i*16), 8))
	}
	step(t, ac, "b", disk.Read, geom.Ext(0, 8))
	ac.Close()
	c, err := server.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stat("a")
	if err != nil {
		t.Fatal(err)
	}
	if st.Writes != 10 {
		t.Errorf("volume a writes = %d, want 10", st.Writes)
	}
	c.Close()

	if err := stop(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "per-volume summary") {
		t.Errorf("no summary table in output:\n%s", got)
	}
	if !strings.Contains(got, "volumes: a, b") {
		t.Errorf("listen line missing volume names:\n%s", got)
	}
}

func TestDaemonJournalRestartResumes(t *testing.T) {
	dir := t.TempDir()
	var out1 syncBuffer
	addr, stop := startDaemon(t, &out1,
		"-listen", "127.0.0.1:0", "-volumes", "dur", "-journal-dir", dir)
	ac, err := server.DialAsync(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		step(t, ac, "dur", disk.Write, geom.Ext(geom.Sector(i*16), 8))
	}
	ac.Close()
	if err := stop(); err != nil {
		t.Fatalf("first shutdown: %v", err)
	}

	// Restart on the same journal directory: state must be recovered.
	var out2 syncBuffer
	addr, stop = startDaemon(t, &out2,
		"-listen", "127.0.0.1:0", "-volumes", "dur", "-journal-dir", dir)
	if !strings.Contains(out2.String(), "volume dur recovered") {
		t.Errorf("no recovery line after restart:\n%s", out2.String())
	}
	// bench/workloads.go parses "N journal records replayed" from this line.
	if !strings.Contains(out2.String(), "MB/s") || !strings.Contains(out2.String(), " journal records replayed") {
		t.Errorf("recovery line lacks duration/throughput detail:\n%s", out2.String())
	}
	ac, err = server.DialAsync(addr, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A read of a previously written extent resolves against recovered
	// state: exactly 1 fragment, not a hole.
	if frags := binary.LittleEndian.Uint32(step(t, ac, "dur", disk.Read, geom.Ext(0, 8))); frags != 1 {
		t.Errorf("read of recovered extent resolved to %d frags, want 1", frags)
	}
	ac.Close()
	if err := stop(); err != nil {
		t.Fatalf("second shutdown: %v", err)
	}
}

func TestParseVolumesRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{"", "a=bogus", "=defrag", "a,,b"} {
		if _, err := parseVolumes(spec, "", 1<<20, 0, 0, 0, 0); err == nil {
			t.Errorf("parseVolumes(%q) accepted a bad spec", spec)
		}
	}
	cfgs, err := parseVolumes("a, b=defrag+prefetch+cache", "/j", 1<<20, 4, 2, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfgs) != 2 || cfgs[0].Name != "a" || cfgs[1].Name != "b" {
		t.Fatalf("parseVolumes: %+v", cfgs)
	}
	b := cfgs[1]
	if b.Sim.Defrag == nil || b.Sim.Prefetch == nil || b.Sim.Cache == nil {
		t.Errorf("options not applied: %+v", b.Sim)
	}
	if b.JournalDir != "/j/b" || b.CheckpointEvery != 100 {
		t.Errorf("journal wiring: dir=%q every=%d", b.JournalDir, b.CheckpointEvery)
	}
}

// TestRunRejectsBadFlags: a flag value smrd would otherwise reinterpret
// (a negative count read as the default, an oversized window clamped, a
// negative timeout read as none) is an error before the daemon listens.
func TestRunRejectsBadFlags(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a daemon that wrongly starts shuts down at once
	for _, args := range [][]string{
		{"-max-window", "-5"},
		{"-max-window", "100000"},
		{"-request-timeout", "-1s"},
		{"-seal-every", "-1"},
		{"-checkpoint-every", "-1"},
	} {
		var out bytes.Buffer
		err := run(ctx, append([]string{"-listen", "127.0.0.1:0"}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), args[0]+" ") {
			t.Errorf("%v: err = %v, want a rejection naming %s", args, err, args[0])
		}
		if strings.Contains(out.String(), "listening on") {
			t.Errorf("%v: smrd listened before rejecting the flag:\n%s", args, out.String())
		}
	}
}
