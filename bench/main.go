// Command bench is the end-to-end benchmark of the smrseek block
// service: it builds smrd and smrverify from the checkout, generates
// every input from -seed, runs five workloads against the real daemon
// over loopback (one of them in-process through the root facade),
// checks the outputs, and prints every metric by name. See README.md.
//
//	bash bench/run.sh --workload wire-sync --seed 1 --seconds 8 --trace 0
//	bash bench/run.sh -seed 1                 # all five workloads
//	bash bench/run.sh -seed 1 -trace 1        # the layer ladder
//	bash bench/run.sh -seed 1 -agree          # two sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json: the single source of the metric names,
// units, directions and bounds the driver prints and -agree enforces.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) metrics(trace bool) []metricSpec {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// envHeader records where a result came from.
type envHeader struct {
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	CPUModel   string            `json:"cpu_model"`
	GoVersion  string            `json:"go_version"`
	GitCommit  string            `json:"git_commit"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Traced     bool              `json:"traced"`
	Scales     map[string]string `json:"scales"`
}

func readEnv(root string, seed uint64, seconds float64, traced bool) envHeader {
	e := envHeader{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		CPUModel: "unknown", GitCommit: "unknown", Seed: seed, Seconds: seconds, Traced: traced,
		Scales: map[string]string{},
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	// The driver's checkout is not a git repository; "unknown" is right there.
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.GitCommit = strings.TrimSpace(string(out))
	}
	for name, sz := range sizes {
		e.Scales[name] = fmt.Sprintf("%s x %.3g", sz.profile, sz.scale*seconds/defaultSeconds)
	}
	return e
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one workload run as -out writes it: the result line plus
// what does not fit its four keys.
type record struct {
	Env      envHeader          `json:"env"`
	Workload string             `json:"workload"`
	Result   result             `json:"result"`
	Samples  map[string]int     `json:"samples"`
	Exact    map[string]float64 `json:"exact"`
}

// toResult keeps exactly the metrics BENCHMARK.json lists for the mode.
// A per-layer metric a workload's path does not reach reads 0; an
// end-to-end metric must be present.
func toResult(o *outcome, specs []metricSpec, traced bool) (result, error) {
	r := result{Correct: true, Attempted: o.Attempted, Failed: o.Failed, Metrics: map[string]metricValue{}}
	for _, m := range specs {
		v, ok := o.value(m.Name)
		if !ok && !traced {
			return r, fmt.Errorf("metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range o.Metrics {
		if _, ok := r.Metrics[name]; !ok {
			return r, fmt.Errorf("metric %s is measured but not listed in BENCHMARK.json", name)
		}
	}
	return r, nil
}

func printTable(rec record, specs []metricSpec) {
	fmt.Printf("%s: attempted %d, failed %d\n", rec.Workload, rec.Result.Attempted, rec.Result.Failed)
	for _, m := range specs {
		n := max(rec.Samples[m.Name], 1)
		bound := ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("  bound %.0f%%", m.Bound*100)
		}
		fmt.Printf("  %-40s %16.6g %-10s n=%-8d %s%s\n", m.Name, rec.Result.Metrics[m.Name].Value, m.Unit, n, m.Better, bound)
	}
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// options are the command line.
type options struct {
	root     string
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	reps     int
	out      string
	agree    bool
}

func run() error {
	var (
		opt   options
		trace int
	)
	flag.StringVar(&opt.root, "root", "", "the checkout to measure (default: the directory holding BENCHMARK.json, here or one up)")
	flag.StringVar(&opt.workload, "workload", "all", "workload name, or all")
	flag.Uint64Var(&opt.seed, "seed", 1, "input seed, XOR-ed into the workload profile's seed")
	flag.Float64Var(&opt.seconds, "seconds", 0, "run length the inputs are sized for (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&trace, "trace", 0, "1 = traced run: the layer ladder and per-layer metrics instead of the end-to-end ones")
	flag.IntVar(&opt.reps, "reps", 1, "runs per workload; the median of each metric is reported")
	flag.StringVar(&opt.out, "out", "", "also write the environment header and every result to this JSON file")
	flag.BoolVar(&opt.agree, "agree", false, "run two full sets and fail if any metric disagrees beyond its bound")
	flag.Parse()
	opt.trace = trace != 0
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if opt.root == "" {
		for _, dir := range []string{".", ".."} {
			if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
				opt.root = dir
				break
			}
		}
	}
	var err error
	if opt.root, err = filepath.Abs(opt.root); err != nil {
		return err
	}
	spec, err := loadSpec(opt.root)
	if err != nil {
		return err
	}
	if opt.seconds <= 0 {
		opt.seconds = float64(spec.RunSeconds)
	}
	if opt.reps < 1 {
		return fmt.Errorf("-reps must be at least 1")
	}
	if opt.agree && opt.trace {
		return fmt.Errorf("-agree compares the end-to-end metrics, which a traced run does not report; drop -trace")
	}
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("the loader and smrd each need a CPU to themselves; this machine has %d", runtime.NumCPU())
	}
	if opt.workload != "all" && opt.reps == 1 && !opt.agree {
		return runOne(opt, spec)
	}
	return runMany(opt, spec)
}

// runOne measures one workload in this process and prints its result
// line last.
func runOne(opt options, spec *benchSpec) (err error) {
	workRoot := filepath.Join(opt.root, buildDirName, "work")
	if err := os.MkdirAll(workRoot, 0o777); err != nil {
		return err
	}
	workDir, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return err
	}
	cleanup := func() { os.RemoveAll(workDir) }
	onInterrupt(cleanup)
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
		killAllChildren()
		cleanup()
	}()

	b := &bench{root: opt.root, workDir: workDir, seed: opt.seed, factor: opt.seconds / defaultSeconds,
		trace: opt.trace, cheapSetups: defaultCheapSetups}
	rec := record{Env: readEnv(opt.root, opt.seed, opt.seconds, opt.trace), Workload: opt.workload}
	hdr, _ := json.Marshal(map[string]envHeader{"env": rec.Env})
	fmt.Println(string(hdr))

	o, err := b.run(opt.workload)
	if err != nil {
		return fmt.Errorf("%s: %w", opt.workload, err)
	}
	specs := spec.metrics(opt.trace)
	if rec.Result, err = toResult(o, specs, opt.trace); err != nil {
		return fmt.Errorf("%s: %w", opt.workload, err)
	}
	rec.Samples, rec.Exact = o.Samples, o.Exact
	printTable(rec, specs)
	if opt.trace {
		if err := writeSpans(opt.root, rec, o.Spans); err != nil {
			return err
		}
	}
	if opt.out != "" {
		if err := writeJSON(opt.out, rec); err != nil {
			return err
		}
	}
	last, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o666)
}

// writeSpans writes one workload's ladder trace next to the build outputs.
func writeSpans(root string, rec record, spans []span) error {
	dir := filepath.Join(root, buildDirName, "out")
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return err
	}
	return writeJSON(filepath.Join(dir, "trace-"+rec.Workload+".json"),
		map[string]any{"env": rec.Env, "workload": rec.Workload, "spans": spans})
}

// measureInChild runs one workload in a process of its own, exactly as a
// single-workload invocation does, so that no run inherits the heap or
// the resident set of the run before it.
func measureInChild(opt options, workload string) (record, error) {
	var rec record
	self, err := os.Executable()
	if err != nil {
		return rec, err
	}
	tmp, err := os.CreateTemp(filepath.Join(opt.root, buildDirName), "record-*.json")
	if err != nil {
		return rec, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	trace := "0"
	if opt.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "-root", opt.root, "-workload", workload, "-seed", strconv.FormatUint(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", trace, "-out", tmp.Name())
	cmd.Stderr = os.Stderr
	// If this process dies, the child learns of it, stops its smrd and
	// removes its work directory (see onInterrupt).
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	if err := cmd.Run(); err != nil {
		return rec, fmt.Errorf("%s: %w", workload, err)
	}
	data, err := os.ReadFile(tmp.Name())
	if err != nil {
		return rec, err
	}
	return rec, json.Unmarshal(data, &rec)
}

// medianRecord folds several runs of one workload into one: each
// metric's median, the exact counts of the first.
func medianRecord(runs []record) record {
	med := runs[0]
	if len(runs) == 1 {
		return med
	}
	med.Result.Metrics = map[string]metricValue{}
	med.Samples = map[string]int{}
	med.Result.Attempted, med.Result.Failed = 0, 0
	for _, r := range runs {
		med.Result.Attempted += r.Result.Attempted
		med.Result.Failed += r.Result.Failed
	}
	for name, first := range runs[0].Result.Metrics {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r.Result.Metrics[name].Value)
		}
		med.Result.Metrics[name] = metricValue{Value: median(vs), Unit: first.Unit}
		med.Samples[name] = len(runs)
	}
	return med
}

// runMany is every mode that measures more than one run: each run is a
// child process of this binary.
func runMany(opt options, spec *benchSpec) error {
	names := workloadNames
	if opt.workload != "all" {
		names = []string{opt.workload}
	}
	sets := 1
	if opt.agree {
		sets = 2
	}
	specs := spec.metrics(opt.trace)
	measured := make([]map[string]record, sets)
	for i := range measured {
		measured[i] = map[string]record{}
	}
	// Workload by workload, so the two runs -agree compares are minutes
	// apart at most: the sandbox's speed drifts by more than the bounds
	// over the ten minutes two whole sets take.
	for _, name := range names {
		for i := range measured {
			var runs []record
			for r := 0; r < opt.reps; r++ {
				rec, err := measureInChild(opt, name)
				if err != nil {
					return err
				}
				runs = append(runs, rec)
			}
			measured[i][name] = medianRecord(runs)
			if !opt.agree {
				printTable(measured[i][name], specs)
			}
		}
	}
	if opt.out != "" {
		if err := writeJSON(opt.out, measured); err != nil {
			return err
		}
	}
	if opt.agree {
		return agree(spec, names, measured[0], measured[1])
	}
	last, err := json.Marshal(measured[0])
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// agree compares two sets of runs of one commit on one seed and fails when a pair disagrees beyond the metric's own bound, or
// at all for an exact count.
func agree(spec *benchSpec, names []string, first, second map[string]record) error {
	var bad []string
	fmt.Printf("%-14s %-24s %14s %14s %8s %8s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for _, name := range names {
		a, b := first[name], second[name]
		for _, m := range spec.EndToEnd {
			if _, exact := a.Exact[m.Name]; exact {
				continue // compared bit for bit below
			}
			v1, v2 := a.Result.Metrics[m.Name].Value, b.Result.Metrics[m.Name].Value
			d, verdict := relDiff(v1, v2), "ok"
			if d > m.Bound {
				verdict = "DISAGREE"
				bad = append(bad, name+"/"+m.Name)
			}
			fmt.Printf("%-14s %-24s %14.6g %14.6g %7.2f%% %7.2f%% %s\n", name, m.Name, v1, v2, d*100, m.Bound*100, verdict)
		}
		for _, key := range sortedKeys(a.Exact) {
			v1, v2, verdict := a.Exact[key], b.Exact[key], "ok"
			if v1 != v2 {
				verdict = "DISAGREE"
				bad = append(bad, name+"/"+key)
			}
			fmt.Printf("%-14s %-24s %14.9g %14.9g %8s %8s %s\n", name, key, v1, v2, "", "exact", verdict)
		}
		if f := a.Result.Failed + b.Result.Failed; f != 0 {
			bad = append(bad, fmt.Sprintf("%s/failed=%d", name, f))
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("two sets of the same commit disagree: %s", strings.Join(bad, ", "))
	}
	fmt.Println("agree: every metric within its bound, every exact count equal")
	return nil
}
