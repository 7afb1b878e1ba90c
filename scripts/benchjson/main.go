// Command benchjson converts `go test -bench` output into a stable JSON
// baseline and compares two baselines.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem ./... | go run ./scripts/benchjson > BENCH_baseline.json
//	go run ./scripts/benchjson -compare BENCH_baseline.json BENCH_new.json
//	go run ./scripts/benchjson -compare -gate-allocs 25 -match 'Simulator|extmap' old.json new.json
//
// Compare prints one line per benchmark with the ns/op delta (and the
// allocs/op delta where both baselines carry -benchmem data). By default
// it exits nonzero only on malformed input — the output is for humans
// reviewing a PR's perf trajectory; ns/op is never gated, because a
// baseline recorded on one machine says nothing about another's speed.
// With -gate-allocs PCT it becomes a CI gate: any benchmark (optionally
// filtered by -match against "pkg.Name") whose allocs/op — which is
// deterministic — grew by more than PCT percent fails the run.
// Benchmarks whose old baseline records 0 allocs/op are skipped (a
// 0 -> 1 step is infinite in percent terms, and zero-alloc paths are
// pinned exactly by the testing.AllocsPerRun tests instead).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Result is one benchmark line from `go test -bench` output.
type Result struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Baseline is the JSON document benchjson emits.
type Baseline struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	compare := flag.Bool("compare", false, "compare two baseline files instead of parsing stdin")
	gateAllocs := flag.Float64("gate-allocs", 0, "with -compare: fail when any matched benchmark's allocs/op grew by more than this percent (0 = report only; old-zero-alloc benchmarks are skipped)")
	match := flag.String("match", "", `with -gate-allocs: regexp selecting the benchmarks to gate, matched against "pkg.Name" (empty = all)`)
	flag.Parse()
	var err error
	if *compare {
		var re *regexp.Regexp
		if *match != "" {
			re, err = regexp.Compile(*match)
		}
		switch {
		case err != nil:
			err = fmt.Errorf("-match: %v", err)
		case flag.NArg() != 2:
			err = fmt.Errorf("-compare wants exactly two baseline files, got %d", flag.NArg())
		default:
			err = runCompare(os.Stdout, flag.Arg(0), flag.Arg(1), re, *gateAllocs)
		}
	} else {
		err = runParse(os.Stdin, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func runParse(in io.Reader, out io.Writer) error {
	b, err := Parse(in)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// Parse reads `go test -bench` output and collects benchmark lines,
// tracking the `pkg:` context lines so names stay unique across
// packages.
func Parse(r io.Reader) (Baseline, error) {
	var b Baseline
	pkg := ""
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for s.Scan() {
		line := strings.TrimSpace(s.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			b.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			b.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			res, ok, err := parseBenchLine(line)
			if err != nil {
				return Baseline{}, fmt.Errorf("line %q: %w", line, err)
			}
			if ok {
				res.Pkg = pkg
				b.Benchmarks = append(b.Benchmarks, res)
			}
		}
	}
	if err := s.Err(); err != nil {
		return Baseline{}, err
	}
	sort.Slice(b.Benchmarks, func(i, j int) bool {
		if b.Benchmarks[i].Pkg != b.Benchmarks[j].Pkg {
			return b.Benchmarks[i].Pkg < b.Benchmarks[j].Pkg
		}
		return b.Benchmarks[i].Name < b.Benchmarks[j].Name
	})
	return b, nil
}

// parseBenchLine handles "BenchmarkX-8  1234  56.7 ns/op [ 8 B/op  1 allocs/op ]".
// Lines that merely start with "Benchmark" but are not results (e.g. a
// bare name printed before a sub-benchmark runs) are skipped, not errors.
func parseBenchLine(line string) (Result, bool, error) {
	f := strings.Fields(line)
	if len(f) < 4 || f[3] != "ns/op" {
		return Result{}, false, nil
	}
	var res Result
	res.Name = stripProcSuffix(f[0])
	var err error
	if res.Iterations, err = strconv.ParseInt(f[1], 10, 64); err != nil {
		return Result{}, false, fmt.Errorf("iterations: %w", err)
	}
	if res.NsPerOp, err = strconv.ParseFloat(f[2], 64); err != nil {
		return Result{}, false, fmt.Errorf("ns/op: %w", err)
	}
	for i := 4; i+1 < len(f); i += 2 {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			continue
		}
		switch f[i+1] {
		case "B/op":
			res.BytesPerOp = v
		case "allocs/op":
			res.AllocsPerOp = v
		}
	}
	return res, true, nil
}

func runCompare(out io.Writer, oldPath, newPath string, match *regexp.Regexp, gateAllocsPct float64) error {
	oldB, err := loadBaseline(oldPath)
	if err != nil {
		return err
	}
	newB, err := loadBaseline(newPath)
	if err != nil {
		return err
	}
	fmt.Fprint(out, FormatCompare(oldB, newB))
	if bad := Regressions(oldB, newB, match, gateAllocsPct); len(bad) > 0 {
		return fmt.Errorf("%d benchmark metric(s) regressed past the gate:\n  %s",
			len(bad), strings.Join(bad, "\n  "))
	}
	return nil
}

// Regressions returns a description of every benchmark present in both
// baselines (and matching match, when non-nil) whose allocs/op grew by
// more than gateAllocsPct percent. A gate of 0 disables the check. It
// skips benchmarks whose old baseline shows 0 allocs/op: those either
// predate -benchmem (no data) or are pinned exactly by AllocsPerRun
// tests, and a percent delta from zero is meaningless.
func Regressions(oldB, newB Baseline, match *regexp.Regexp, gateAllocsPct float64) []string {
	newByKey := map[string]Result{}
	for _, r := range newB.Benchmarks {
		newByKey[r.Pkg+"."+r.Name] = r
	}
	var bad []string
	for _, o := range oldB.Benchmarks {
		k := o.Pkg + "." + o.Name
		if match != nil && !match.MatchString(k) {
			continue
		}
		n, ok := newByKey[k]
		if !ok {
			continue
		}
		if gateAllocsPct > 0 && o.AllocsPerOp > 0 {
			if delta := float64(n.AllocsPerOp-o.AllocsPerOp) / float64(o.AllocsPerOp) * 100; delta > gateAllocsPct {
				bad = append(bad, fmt.Sprintf("%s: %d -> %d allocs/op (%+.1f%%)",
					k, o.AllocsPerOp, n.AllocsPerOp, delta))
			}
		}
	}
	return bad
}

// stripProcSuffix removes the trailing -GOMAXPROCS marker go test
// appends to benchmark names ("BenchmarkInsert-8" -> "BenchmarkInsert"),
// so a baseline generated on one machine pairs up with runs on another.
func stripProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i <= 0 || i == len(name)-1 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	return name[:i]
}

func loadBaseline(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

// FormatCompare renders the old→new ns/op movement for every benchmark
// present in either baseline, with the allocs/op movement appended for
// rows where either side recorded allocation data.
func FormatCompare(oldB, newB Baseline) string {
	type pair struct{ o, n *Result }
	key := func(r Result) string { return r.Pkg + "." + r.Name }
	m := map[string]*pair{}
	var order []string
	for i := range oldB.Benchmarks {
		k := key(oldB.Benchmarks[i])
		m[k] = &pair{o: &oldB.Benchmarks[i]}
		order = append(order, k)
	}
	for i := range newB.Benchmarks {
		k := key(newB.Benchmarks[i])
		if p, ok := m[k]; ok {
			p.n = &newB.Benchmarks[i]
		} else {
			m[k] = &pair{n: &newB.Benchmarks[i]}
			order = append(order, k)
		}
	}
	var sb strings.Builder
	for _, k := range order {
		p := m[k]
		switch {
		case p.o == nil:
			fmt.Fprintf(&sb, "%-60s (new) %12.1f ns/op\n", k, p.n.NsPerOp)
		case p.n == nil:
			fmt.Fprintf(&sb, "%-60s (gone, was %.1f ns/op)\n", k, p.o.NsPerOp)
		default:
			delta := 0.0
			if p.o.NsPerOp != 0 {
				delta = (p.n.NsPerOp - p.o.NsPerOp) / p.o.NsPerOp * 100
			}
			fmt.Fprintf(&sb, "%-60s %12.1f -> %12.1f ns/op  %+6.1f%%",
				k, p.o.NsPerOp, p.n.NsPerOp, delta)
			if p.o.AllocsPerOp != 0 || p.n.AllocsPerOp != 0 {
				fmt.Fprintf(&sb, "  %8d -> %8d allocs/op", p.o.AllocsPerOp, p.n.AllocsPerOp)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
