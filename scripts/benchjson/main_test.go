package main

import (
	"regexp"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: smrseek/internal/extmap
cpu: whatever
BenchmarkInsert-8   	  123456	      98.5 ns/op	      24 B/op	       1 allocs/op
BenchmarkLookup-8   	  999999	      12.0 ns/op
BenchmarkSubName
PASS
ok  	smrseek/internal/extmap	1.234s
pkg: smrseek/internal/disk
BenchmarkSeekTime-8 	     500	   2000 ns/op
`

func TestParse(t *testing.T) {
	b, err := Parse(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if b.Goos != "linux" || b.Goarch != "amd64" {
		t.Errorf("goos/goarch = %q/%q", b.Goos, b.Goarch)
	}
	if len(b.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(b.Benchmarks), b.Benchmarks)
	}
	// Sorted by pkg then name: disk first. The -GOMAXPROCS suffix is
	// stripped so baselines pair up across machines.
	first := b.Benchmarks[0]
	if first.Pkg != "smrseek/internal/disk" || first.Name != "BenchmarkSeekTime" || first.NsPerOp != 2000 {
		t.Errorf("first = %+v", first)
	}
	ins := b.Benchmarks[1]
	if ins.Name != "BenchmarkInsert" || ins.Iterations != 123456 ||
		ins.NsPerOp != 98.5 || ins.BytesPerOp != 24 || ins.AllocsPerOp != 1 {
		t.Errorf("insert = %+v", ins)
	}
}

func TestStripProcSuffix(t *testing.T) {
	cases := map[string]string{
		"BenchmarkInsert-8":       "BenchmarkInsert",
		"BenchmarkInsert-128":     "BenchmarkInsert",
		"BenchmarkInsert":         "BenchmarkInsert",
		"BenchmarkLookup/100k-8":  "BenchmarkLookup/100k",
		"BenchmarkLookup/100k":    "BenchmarkLookup/100k",
		"BenchmarkX-":             "BenchmarkX-",
		"-8":                      "-8",
		"BenchmarkAblation/1GiB4": "BenchmarkAblation/1GiB4",
	}
	for in, want := range cases {
		if got := stripProcSuffix(in); got != want {
			t.Errorf("stripProcSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseRejectsGarbageNumbers(t *testing.T) {
	_, err := Parse(strings.NewReader("BenchmarkX-8  zzz  1.0 ns/op\n"))
	if err == nil {
		t.Error("bad iteration count accepted")
	}
}

func TestFormatCompare(t *testing.T) {
	oldB := Baseline{Benchmarks: []Result{
		{Pkg: "p", Name: "BenchmarkA-8", NsPerOp: 100, AllocsPerOp: 40},
		{Pkg: "p", Name: "BenchmarkGone-8", NsPerOp: 5},
	}}
	newB := Baseline{Benchmarks: []Result{
		{Pkg: "p", Name: "BenchmarkA-8", NsPerOp: 150, AllocsPerOp: 4},
		{Pkg: "p", Name: "BenchmarkNew-8", NsPerOp: 7},
	}}
	out := FormatCompare(oldB, newB)
	for _, want := range []string{"+50.0%", "(gone", "(new)", "allocs/op"} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	// Rows with no allocation data on either side stay ns-only.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "BenchmarkGone") && strings.Contains(line, "allocs/op") {
			t.Errorf("alloc column on a row without alloc data:\n%s", line)
		}
	}
}

func TestRegressionsAllocGate(t *testing.T) {
	oldB := Baseline{Benchmarks: []Result{
		{Pkg: "p", Name: "BenchmarkGrew", NsPerOp: 100, AllocsPerOp: 100},
		{Pkg: "p", Name: "BenchmarkSteady", NsPerOp: 100, AllocsPerOp: 100},
		{Pkg: "p", Name: "BenchmarkWasZero", NsPerOp: 100, AllocsPerOp: 0},
		{Pkg: "p", Name: "BenchmarkGone", NsPerOp: 100, AllocsPerOp: 100},
	}}
	newB := Baseline{Benchmarks: []Result{
		{Pkg: "p", Name: "BenchmarkGrew", NsPerOp: 100, AllocsPerOp: 140},
		{Pkg: "p", Name: "BenchmarkSteady", NsPerOp: 100, AllocsPerOp: 110},
		{Pkg: "p", Name: "BenchmarkWasZero", NsPerOp: 100, AllocsPerOp: 50},
	}}
	bad := Regressions(oldB, newB, nil, 25)
	if len(bad) != 1 || !strings.Contains(bad[0], "BenchmarkGrew") || !strings.Contains(bad[0], "allocs/op") {
		t.Errorf("alloc Regressions = %v, want only BenchmarkGrew's allocs", bad)
	}
	// ns/op is reported, never gated: a slower row alone flags nothing.
	newB.Benchmarks[1].NsPerOp = 200
	if bad := Regressions(oldB, newB, nil, 25); len(bad) != 1 {
		t.Errorf("Regressions after an ns/op slip = %v, want the alloc entry only", bad)
	}
	// -match filters what is gated. (BenchmarkGone, absent from the new
	// run, never gates.)
	if bad := Regressions(oldB, newB, regexp.MustCompile(`Steady`), 25); len(bad) != 0 {
		t.Errorf("filtered Regressions = %v, want none", bad)
	}
	// Gate 0 disables the alloc check entirely.
	if bad := Regressions(oldB, newB, nil, 0); len(bad) != 0 {
		t.Errorf("disabled gate still flagged %v", bad)
	}
}
