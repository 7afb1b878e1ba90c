package main

import (
	"bytes"
	"net"
	"strings"
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/metrics"
	"smrseek/internal/server"
	"smrseek/internal/volume"
)

// startServer brings up an in-process smrd stack for the generator to
// hit over real TCP.
func startServer(t *testing.T, cfgs ...volume.Config) string {
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
	return ln.Addr().String()
}

func lsConfig(name string) volume.Config {
	return volume.Config{
		Name: name,
		Sim:  core.Config{LogStructured: true, FrontierStart: 1 << 22},
	}
}

func TestLoadGeneratorReportsLatency(t *testing.T) {
	addr := startServer(t, lsConfig("a"), lsConfig("b"))
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
	addr := startServer(t, lsConfig("a"))
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
	addr := startServer(t, lsConfig("a"), lsConfig("b"))
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
	addr := startServer(t, cfg)
	pre, _, err := loadTrace("w91", 0.01, "", "cp", -1)
	if err != nil {
		t.Fatal(err)
	}
	agg := &tally{lat: metrics.NewHistogram()}
	if err := drivePipelined(addr, nil, "a", pre, agg, 0, 100000, 32); err != nil {
		t.Fatalf("drivePipelined: %v", err)
	}
	if want := int64(pre.Len()); agg.ops != want {
		t.Fatalf("ops = %d, want exactly %d (shed retries must not double-count)", agg.ops, want)
	}
	if agg.sheds == 0 {
		t.Error("QueueDepth-1 volume under window 32 shed nothing; shed path untested")
	}
	if agg.failovers != 0 {
		t.Errorf("failovers = %d on a healthy single server", agg.failovers)
	}
}
