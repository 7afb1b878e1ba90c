package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"smrseek"
	"smrseek/internal/core"
	"smrseek/internal/metrics"
	"smrseek/internal/server"
	"smrseek/internal/trace"
	"smrseek/internal/volume"
)

// startServer brings up an in-process smrd stack for the generator to
// hit over real TCP.
func startServer(t *testing.T, cfgs ...volume.Config) (string, *volume.Manager) {
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
	srv := server.New(mgr, ln, server.Options{Logf: t.Logf})
	t.Cleanup(func() {
		srv.Close()
		mgr.Close()
	})
	return ln.Addr().String(), mgr
}

func lsConfig(name string) volume.Config {
	return volume.Config{
		Name: name,
		Sim:  core.Config{LogStructured: true, FrontierStart: 1 << 22},
	}
}

func TestLoadGeneratorReportsLatency(t *testing.T) {
	addr, _ := startServer(t, lsConfig("a"), lsConfig("b"))
	var out bytes.Buffer
	err := run([]string{
		"-addr", addr, "-volumes", "a,b",
		"-workload", "w91", "-scale", "0.01", "-conns", "4",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"load summary", "ops/s", "p50", "p99", "replaying w91"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestLoadGeneratorThrottled(t *testing.T) {
	addr, _ := startServer(t, lsConfig("a"))
	var out bytes.Buffer
	// High QPS so the throttle path runs without slowing the test.
	err := run([]string{
		"-addr", addr, "-volumes", "a",
		"-workload", "w91", "-scale", "0.005", "-conns", "2", "-qps", "200000",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "at 200000 qps") {
		t.Errorf("throttle not reported:\n%s", out.String())
	}
}

func TestLoadGeneratorFlagValidation(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-conns", "0"}, &out); err == nil {
		t.Error("accepted -conns 0")
	}
	// Each bad value must be rejected by name before any dial: the
	// address is unreachable, so a dial error would also fail the run.
	for _, args := range [][]string{
		{"-scale", "0"}, {"-scale", "-1"}, {"-qps", "-5"}, {"-max-retries", "-1"},
		{"-window", "0"},
	} {
		err := run(append([]string{"-addr", "127.0.0.1:1"}, args...), &out)
		if err == nil || !strings.Contains(err.Error(), args[0]+" ") {
			t.Errorf("%v: err = %v, want a rejection naming %s", args, err, args[0])
		}
	}
	if err := run([]string{"-volumes", "a,,b"}, &out); err == nil {
		t.Error("accepted empty volume name")
	}
	if _, _, err := loadTrace("", 1, "/no/such/file", "weird", -1); err == nil {
		t.Error("accepted missing trace file")
	}
}

func TestLoadGeneratorPipelined(t *testing.T) {
	addr, _ := startServer(t, lsConfig("a"), lsConfig("b"))
	var out bytes.Buffer
	err := run([]string{
		"-addr", addr, "-volumes", "a,b",
		"-workload", "w91", "-scale", "0.01", "-conns", "2", "-window", "16",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	got := out.String()
	for _, want := range []string{"pipelined (window 16)", "load summary", "ops/s"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestPipelinedShedAccounting pins the retry-dedupe contract: a record
// that bounces off a full queue is resubmitted under a fresh request ID
// but must count exactly one op. A QueueDepth-1 volume under a window
// of 32 sheds constantly, so any double-count shows up as ops > trace
// length.
func TestPipelinedShedAccounting(t *testing.T) {
	cfg := lsConfig("a")
	cfg.QueueDepth = 1
	addr, _ := startServer(t, cfg)
	pre, _, err := loadTrace("w91", 0.01, "", "cp", -1)
	if err != nil {
		t.Fatal(err)
	}
	agg := &tally{lat: metrics.NewHistogram()}
	if err := drive(addr, "a", pre, agg, 0, 100000, 32); err != nil {
		t.Fatalf("drive: %v", err)
	}
	if want := int64(pre.Len()); agg.ops != want {
		t.Fatalf("ops = %d, want exactly %d (shed retries must not double-count)", agg.ops, want)
	}
	if agg.sheds == 0 {
		t.Error("QueueDepth-1 volume under window 32 shed nothing; shed path untested")
	}
}

// smallTrace is a ~200-record w91 trace.
func smallTrace(t *testing.T) *trace.Preloaded {
	t.Helper()
	pre, _, err := loadTrace("w91", 0.005, "", "cp", -1)
	if err != nil {
		t.Fatal(err)
	}
	return pre
}

// driveWithin runs drive in a goroutine and fails the test if it has
// not returned within d, so a livelocked driver fails instead of
// hanging the package.
func driveWithin(t *testing.T, d time.Duration, addr, vol string, pre *trace.Preloaded, agg *tally, interval time.Duration, maxRetries, window int) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- drive(addr, vol, pre, agg, interval, maxRetries, window) }()
	select {
	case err := <-errc:
		return err
	case <-time.After(d):
		t.Fatalf("window %d: drive still running after %v", window, d)
		return nil
	}
}

// TestDriveFailsOnEncodeError: a submit error that is not a transport
// failure — here a volume name too long to encode — ends the run at
// every window instead of being redialed forever.
func TestDriveFailsOnEncodeError(t *testing.T) {
	addr, _ := startServer(t, lsConfig("a"))
	long := strings.Repeat("x", 300)
	for _, window := range []int{1, 2, 32} {
		agg := &tally{lat: metrics.NewHistogram()}
		err := driveWithin(t, 5*time.Second, addr, long, smallTrace(t), agg, 0, 10, window)
		if err == nil || !strings.Contains(err.Error(), "300 bytes") {
			t.Errorf("window %d: err = %v, want the encode error", window, err)
		}
	}
}

// forwarder relays TCP connections to target, so a test can sever every
// live connection at once with kill while new ones still get through.
type forwarder struct {
	ln   net.Listener
	mu   sync.Mutex
	live map[net.Conn]bool
}

func newForwarder(t *testing.T, target string) *forwarder {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &forwarder{ln: ln, live: make(map[net.Conn]bool)}
	t.Cleanup(func() {
		ln.Close()
		f.kill()
	})
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			s, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			f.mu.Lock()
			f.live[c], f.live[s] = true, true
			f.mu.Unlock()
			pipe := func(dst, src net.Conn) {
				io.Copy(dst, src)
				dst.Close()
				src.Close()
			}
			go pipe(s, c)
			go pipe(c, s)
		}
	}()
	return f
}

// kill closes every live connection pair.
func (f *forwarder) kill() {
	f.mu.Lock()
	defer f.mu.Unlock()
	for c := range f.live {
		c.Close()
	}
	clear(f.live)
}

// TestDriveSurvivesKilledConnection: a connection severed mid-run is
// redialed and the replay completes, every record counted exactly once,
// at the synchronous window and a pipelined one.
func TestDriveSurvivesKilledConnection(t *testing.T) {
	for _, window := range []int{1, 8} {
		t.Run(fmt.Sprintf("window%d", window), func(t *testing.T) {
			addr, _ := startServer(t, lsConfig("a"))
			proxy := newForwarder(t, addr)
			pre := smallTrace(t)
			want := int64(pre.Len())
			agg := &tally{lat: metrics.NewHistogram()}
			stop := make(chan struct{})
			killedAt := make(chan int64, 1) // ops observed at the kill; -1 if none
			go func() {
				for {
					agg.mu.Lock()
					ops := agg.ops
					agg.mu.Unlock()
					if ops >= want/2 {
						proxy.kill()
						killedAt <- ops
						return
					}
					select {
					case <-stop:
						killedAt <- -1
						return
					case <-time.After(time.Millisecond):
					}
				}
			}()
			err := driveWithin(t, 30*time.Second, proxy.ln.Addr().String(), "a", pre, agg, 200*time.Microsecond, 1000, window)
			close(stop)
			if at := <-killedAt; at < 0 || at >= want {
				t.Fatalf("connection killed at op %d of %d, want mid-run", at, want)
			}
			if err != nil {
				t.Fatalf("drive across a killed connection: %v", err)
			}
			if agg.ops != want {
				t.Errorf("ops = %d, want %d", agg.ops, want)
			}
		})
	}
}

// stallVolume blocks v's actor and fills its single queue slot until
// release is called, so every request to a QueueDepth-1 volume sheds.
func stallVolume(t *testing.T, v *volume.Volume) (release func()) {
	t.Helper()
	stall := make(chan volume.Result, 1)
	stall <- volume.Result{} // the actor blocks delivering into this
	if err := v.TryDo(volume.Request{Kind: volume.OpStat}, stall); err != nil {
		t.Fatal(err)
	}
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
	return func() {
		<-stall
		<-parked
	}
}

// TestDriveShedPacing: at window 1 a shed record waits 1 ms before it
// is resent, so -max-retries 200 rides out a 100 ms stall. Without the
// wait the 200 retries burn out in a few milliseconds of immediate
// rejections.
func TestDriveShedPacing(t *testing.T) {
	cfg := lsConfig("a")
	cfg.QueueDepth = 1
	addr, mgr := startServer(t, cfg)
	v, _ := mgr.Get("a")
	release := stallVolume(t, v)
	released := make(chan struct{})
	go func() {
		defer close(released)
		time.Sleep(100 * time.Millisecond)
		release()
	}()
	t.Cleanup(func() { <-released })
	agg := &tally{lat: metrics.NewHistogram()}
	if err := driveWithin(t, 10*time.Second, addr, "a", smallTrace(t), agg, 0, 200, 1); err != nil {
		t.Fatalf("drive under a 100 ms stall: %v", err)
	}
	if agg.sheds == 0 {
		t.Error("stalled volume shed nothing; pacing untested")
	}
}

// TestLoadGeneratorBinaryTrace: -format bin replays a trace file in the
// binary format smrseek.WriteTrace produces.
func TestLoadGeneratorBinaryTrace(t *testing.T) {
	addr, _ := startServer(t, lsConfig("a"))
	recs := smrseek.MustWorkload("w91").Generate(0.005)
	path := filepath.Join(t.TempDir(), "w91.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := smrseek.WriteTrace(f, smrseek.FormatBinary, recs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	pre, _, err := loadTrace("", 0, path, "bin", -1)
	if err != nil {
		t.Fatal(err)
	}
	if pre.Len() != len(recs) {
		t.Fatalf("loaded %d records, want %d", pre.Len(), len(recs))
	}
	var out bytes.Buffer
	if err := run([]string{"-addr", addr, "-volumes", "a", "-trace", path, "-format", "bin", "-conns", "1"}, &out); err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "load summary") {
		t.Errorf("no load summary:\n%s", out.String())
	}
}
