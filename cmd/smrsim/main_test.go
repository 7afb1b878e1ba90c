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
	"smrseek/internal/obsv"
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

func TestRunCustomLayers(t *testing.T) {
	for _, layer := range []string{"segls", "mcache"} {
		var buf bytes.Buffer
		if err := run([]string{"-workload", "usr_0", "-scale", "0.2", "-layer", layer}, &buf); err != nil {
			t.Fatalf("%s: %v", layer, err)
		}
		if !strings.Contains(buf.String(), "results") {
			t.Errorf("%s output:\n%s", layer, buf.String())
		}
	}
	var buf bytes.Buffer
	if err := run([]string{"-workload", "usr_0", "-scale", "0.1", "-layer", "bogus"}, &buf); err == nil {
		t.Error("unknown layer must error")
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
		"journal with custom layer":  {"-workload", "hm_1", "-journal", "x", "-layer", "segls"},

		// Modifier flags whose flag is off would be silently ignored.
		"cache-mb without cache":           {"-workload", "hm_1", "-ls", "-cache-mb", "32"},
		"cache-mb with cache off":          {"-workload", "hm_1", "-cache=false", "-cache-mb", "32"},
		"checkpoint-every without journal": {"-workload", "hm_1", "-ls", "-checkpoint-every", "100"},
		"format without trace":             {"-workload", "hm_1", "-format", "msr"},
		"disk without trace":               {"-workload", "hm_1", "-disk", "0"},
		"time with all":                    {"-workload", "hm_1", "-all", "-time"},

		// Observability flags follow exactly one simulation: they conflict
		// with -all (many runs) and with standalone -recover (no run).
		"pprof without metrics-addr":        {"-workload", "hm_1", "-pprof"},
		"trace-out with all":                {"-workload", "hm_1", "-all", "-trace-out", "x.trace"},
		"hist with all":                     {"-workload", "hm_1", "-all", "-hist"},
		"metrics-addr with all":             {"-workload", "hm_1", "-all", "-metrics-addr", "127.0.0.1:0"},
		"trace-out with standalone recover": {"-journal", "x", "-recover", "-trace-out", "x.trace"},
		"hist with standalone recover":      {"-journal", "x", "-recover", "-hist"},
		"metrics with standalone recover":   {"-journal", "x", "-recover", "-metrics-addr", "127.0.0.1:0"},
	}
	for name, args := range cases {
		var buf bytes.Buffer
		if err := run(args, &buf); err == nil {
			t.Errorf("%s: accepted %v", name, args)
		}
	}
}

// TestRunTraceOutReplay records a run's event trace via -trace-out and
// checks that it replays; -crash-after + -trace-out is the explicitly
// supported pairing (a crash run's trace replays to the crash stats).
func TestRunTraceOutReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.trace")
	var buf bytes.Buffer
	if err := run([]string{"-workload", "hm_1", "-scale", "0.2", "-ls",
		"-trace-out", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "event trace written to "+path) {
		t.Errorf("output missing trace note:\n%s", buf.String())
	}
	st, err := replayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads == 0 || st.Writes == 0 || st.Disk.TotalSeeks() == 0 {
		t.Errorf("replayed stats look empty: %+v", st)
	}

	// Crash run: the trace must still be complete and replayable, and
	// record the crash.
	crashPath := filepath.Join(dir, "crash.trace")
	var cbuf bytes.Buffer
	if err := run([]string{"-workload", "hm_1", "-scale", "0.2",
		"-journal", filepath.Join(dir, "wal"), "-crash-after", "30",
		"-trace-out", crashPath}, &cbuf); err != nil {
		t.Fatal(err)
	}
	cst, err := replayFile(crashPath)
	if err != nil {
		t.Fatal(err)
	}
	if !cst.Durability.Crashed {
		t.Errorf("crash-run trace replayed without Crashed: %+v", cst.Durability)
	}
	if cst.Durability.JournalAppends == 0 {
		t.Errorf("crash-run trace has no journal appends: %+v", cst.Durability)
	}
}

func TestRunHist(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-workload", "hm_1", "-scale", "0.2", "-ls", "-hist"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"seek_distance", "frags_per_read",
		"read_latency", "write_latency", "seek distance CDF", "P(X<=x)"} {
		if !strings.Contains(out, want) {
			t.Errorf("-hist output missing %q:\n%s", want, out)
		}
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

// replayFile folds the binary trace file at path back into Stats.
func replayFile(path string) (smrseek.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return smrseek.Stats{}, err
	}
	defer f.Close()
	return obsv.Replay(f)
}
