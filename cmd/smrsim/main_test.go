package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smrseek"
	"smrseek/internal/journal"
)

func TestRunWorkloadAll(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "hm_1", "-scale", "0.2", "-all"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"NoLS", "LS+defrag", "LS+prefetch", "LS+cache", "total SAF"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunSingleVariantWithTime(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "hm_1", "-scale", "0.2", "-cache", "-time"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"LS+cache results", "cache hits", "modelled seek time"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.csv")
	recs := smrseek.MustWorkload("ts_0").Generate(0.05)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := smrseek.WriteTrace(f, smrseek.FormatCP, recs); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var buf bytes.Buffer
	if err := run([]string{"-trace", path, "-format", "cp", "-ls"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LS results") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("no workload and no trace must error")
	}
	if err := run([]string{"-workload", "x", "-trace", "y"}, &buf); err == nil {
		t.Error("both workload and trace must error")
	}
	if err := run([]string{"-workload", "bogus"}, &buf); err == nil {
		t.Error("unknown workload must error")
	}
	if err := run([]string{"-trace", "/nonexistent/file"}, &buf); err == nil {
		t.Error("missing trace file must error")
	}
	if err := run([]string{"-trace", "/dev/null", "-format", "bogus"}, &buf); err == nil {
		t.Error("unknown format must error")
	}
}

func TestRunTimeout(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-workload", "usr_0", "-scale", "1.0", "-ls", "-timeout", "1ns"}, &buf)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestRunJournaled(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	var buf bytes.Buffer
	args := []string{"-workload", "hm_1", "-scale", "0.2", "-journal", dir,
		"-checkpoint-every", "500"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"LS+wal results", "write-ahead journal & recovery",
		"journal appends", "checkpoints", "checkpoint age (records)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// The pair left behind is recoverable standalone.
	var rec bytes.Buffer
	if err := run([]string{"-journal", dir, "-recover"}, &rec); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec.String(), "recovered STL state") {
		t.Errorf("recover output:\n%s", rec.String())
	}
	// A second fresh run must not append to the used directory: the
	// combined log would no longer describe one coherent history.
	var again bytes.Buffer
	err := run(args, &again)
	if err == nil || !strings.Contains(err.Error(), "-recover") {
		t.Errorf("fresh run on used journal dir: err = %v, want refusal", err)
	}
}

// TestRecoverRefusesDanglingJournal: standalone -recover is verified
// recovery. A journal whose header names a checkpoint that no longer
// exists is refused as corrupt, not replayed as if merely torn.
func TestRecoverRefusesDanglingJournal(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	var buf bytes.Buffer
	if err := run([]string{"-workload", "hm_1", "-scale", "0.2", "-journal", dir,
		"-checkpoint-every", "20"}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(journal.CheckpointPath(dir)); err != nil {
		t.Fatal(err)
	}
	var rec bytes.Buffer
	err := run([]string{"-journal", dir, "-recover"}, &rec)
	if !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("-recover over a dangling journal: err = %v, want ErrCorrupt\noutput:\n%s", err, rec.String())
	}
}

func TestRunCrashThenRecover(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	var buf bytes.Buffer
	args := []string{"-workload", "hm_1", "-scale", "0.2", "-journal", dir,
		"-checkpoint-every", "20", "-crash-after", "30"}
	if err := run(args, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"simulation crashed", "-recover", "crashed", "true"} {
		if !strings.Contains(out, want) {
			t.Errorf("crash output missing %q:\n%s", want, out)
		}
	}
	// Standalone recovery reports the torn tail.
	var rec bytes.Buffer
	if err := run([]string{"-journal", dir, "-recover"}, &rec); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"recovered STL state", "torn tail detected", "records replayed"} {
		if !strings.Contains(rec.String(), want) {
			t.Errorf("recover output missing %q:\n%s", want, rec.String())
		}
	}
	// Recover-and-continue finishes a fresh workload on the recovered map.
	var cont bytes.Buffer
	args = []string{"-workload", "hm_1", "-scale", "0.1", "-journal", dir, "-recover"}
	if err := run(args, &cont); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"LS+wal results", "recovered from checkpoint"} {
		if !strings.Contains(cont.String(), want) {
			t.Errorf("continue output missing %q:\n%s", want, cont.String())
		}
	}
}

// TestRecoverOverNothing: -recover with a workload over a directory that
// holds no state fails, and leaves no file behind — whether the
// directory is empty or missing.
func TestRecoverOverNothing(t *testing.T) {
	empty := t.TempDir()
	missing := filepath.Join(t.TempDir(), "wal")
	for _, dir := range []string{empty, missing} {
		var buf bytes.Buffer
		err := run([]string{"-workload", "hm_1", "-scale", "0.05", "-journal", dir, "-recover"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "no state to recover") {
			t.Errorf("%s: -recover over nothing: err = %v, want a refusal", dir, err)
		}
	}
	if ents, err := os.ReadDir(empty); err != nil || len(ents) != 0 {
		t.Errorf("refused -recover left %d entries (%v)", len(ents), err)
	}
	if _, err := os.Stat(missing); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("refused -recover created the directory: %v", err)
	}
}

func TestRunFlagValidation(t *testing.T) {
	cases := map[string][]string{
		"negative scale":             {"-workload", "hm_1", "-scale", "-1"},
		"zero scale":                 {"-workload", "hm_1", "-scale", "0"},
		"negative timeout":           {"-workload", "hm_1", "-timeout", "-1s"},
		"zero cache-mb":              {"-workload", "hm_1", "-cache", "-cache-mb", "0"},
		"recover without journal":    {"-workload", "hm_1", "-recover"},
		"crash without journal":      {"-workload", "hm_1", "-crash-after", "5"},
		"negative crash point":       {"-workload", "hm_1", "-journal", "x", "-crash-after", "-2"},
		"negative checkpoint period": {"-workload", "hm_1", "-journal", "x", "-checkpoint-every", "-1"},
		"journal with all":           {"-workload", "hm_1", "-journal", "x", "-all"},

		// Modifier flags whose flag is off would be silently ignored.
		"cache-mb without cache":           {"-workload", "hm_1", "-ls", "-cache-mb", "32"},
		"cache-mb with cache off":          {"-workload", "hm_1", "-cache=false", "-cache-mb", "32"},
		"checkpoint-every without journal": {"-workload", "hm_1", "-ls", "-checkpoint-every", "100"},
		"format without trace":             {"-workload", "hm_1", "-format", "msr"},
		"disk without trace":               {"-workload", "hm_1", "-disk", "0"},
		"time with all":                    {"-workload", "hm_1", "-all", "-time"},

		// Observability flags follow exactly one simulation: they conflict
		// with -all (many runs) and with standalone -recover (no run).
		"pprof without metrics-addr":      {"-workload", "hm_1", "-pprof"},
		"hist with all":                   {"-workload", "hm_1", "-all", "-hist"},
		"metrics-addr with all":           {"-workload", "hm_1", "-all", "-metrics-addr", "127.0.0.1:0"},
		"hist with standalone recover":    {"-journal", "x", "-recover", "-hist"},
		"metrics with standalone recover": {"-journal", "x", "-recover", "-metrics-addr", "127.0.0.1:0"},

		// -trace-out is not a flag: the run it is added to would
		// otherwise succeed.
		"trace-out is unknown": {"-workload", "hm_1", "-scale", "0.05", "-ls", "-trace-out", "x.trace"},
	}
	for name, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%s: accepted %v", name, args)
		}
	}
}

// TestRunHist pins -hist output byte for byte: every bucket count of
// every histogram and the seek-distance CDF. The run is seeded, so a
// change here is a change in what the Collector sees. Regenerate a
// deliberate change with
//
//	go run ./cmd/smrsim -workload hm_1 -scale 0.2 -ls -prefetch -cache -hist > cmd/smrsim/testdata/hist.golden
func TestRunHist(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "hm_1", "-scale", "0.2", "-ls", "-prefetch", "-cache", "-hist"}, &buf); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "hist.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("-hist output differs from testdata/hist.golden\n got:\n%s\nwant:\n%s", buf.Bytes(), want)
	}
}

func TestRunMetricsAddr(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "hm_1", "-scale", "0.2", "-ls",
		"-metrics-addr", "127.0.0.1:0", "-pprof"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "serving metrics on http://127.0.0.1:") {
		t.Errorf("output missing metrics address:\n%s", buf.String())
	}
}
