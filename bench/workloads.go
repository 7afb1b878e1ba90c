package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"smrseek"
	"smrseek/internal/journal"
	"smrseek/internal/trace"
)

const (
	buildDirName = ".bench_build"
	// defaultSeconds is the run length the record counts below were
	// sized for on the 2-core recording machine; --seconds scales the
	// counts in proportion, so one value of --seconds always means the
	// same inputs, on any machine and any commit.
	defaultSeconds = 8
	// restarts is how many times crash-recover restarts smrd over a copy
	// of the killed journal directory.
	restarts = 7
	// defaultCheapSetups is bench.cheapSetups outside the smoke test.
	defaultCheapSetups = 5
)

// sizing is one workload's trace: a catalog profile and its scale at
// defaultSeconds. The scales are chosen so the measured window is about
// defaultSeconds on the recording machine (see README.md).
type sizing struct {
	profile string
	scale   float64
}

var sizes = map[string]sizing{
	"wire-sync":     {"w91", 1.5}, // x 8 volumes
	"mech-pipe":     {"w91", 2.75},
	"durable-write": {"w36", 2.8},
	"crash-recover": {"w36", 2.4},
	"band-clean":    {"w36", 0.9},
}

// workloadNames is the fixed order of `-workload all`.
var workloadNames = []string{"wire-sync", "mech-pipe", "durable-write", "crash-recover", "band-clean"}

// bench is one invocation's context.
type bench struct {
	root    string // the checkout: BENCHMARK.json, cmd/, bench/
	workDir string // scratch for journals, removed at exit
	seed    uint64
	factor  float64 // --seconds / defaultSeconds
	trace   bool
	// cheapSetups is how often a workload whose set-up takes a fraction
	// of a second repeats it; setup_s is the median.
	cheapSetups int
}

func (b *bench) bin(name string) string { return filepath.Join(b.root, buildDirName, "bin", name) }

// outcome is one run of one workload.
type outcome struct {
	Attempted int64
	Failed    int64
	Metrics   map[string]float64
	Samples   map[string]int // samples behind a metric, where more than one
	// Exact holds counts of the simulation: two runs of one commit on one
	// seed must agree on them to the last bit, which -agree checks. They
	// are reported like Metrics, in whichever mode lists them.
	Exact map[string]float64
	Spans []span // the ladder, traced runs only
}

func newOutcome() *outcome {
	return &outcome{Metrics: map[string]float64{}, Samples: map[string]int{}, Exact: map[string]float64{}}
}

// amplification records the two exact end-to-end ratios: read seeks
// against the untranslated baseline, and sectors the medium wrote
// against sectors the host wrote.
func (o *outcome) amplification(readSAF, writeAmp float64) {
	o.Exact["read_saf"], o.Exact["write_amp"] = readSAF, writeAmp
}

// value looks a metric up by name.
func (o *outcome) value(name string) (float64, bool) {
	if v, ok := o.Metrics[name]; ok {
		return v, true
	}
	v, ok := o.Exact[name]
	return v, ok
}

// prepare builds the daemon and the auditor from the checkout's source.
// It runs inside every workload's set-up, so a change that slows the
// build shows in setup_s; with a warm build cache it is a no-op of a few
// hundred milliseconds.
func (b *bench) prepare() error {
	return goBuild(b.root, filepath.Join(b.root, buildDirName, "bin"), "./cmd/smrd", "./cmd/smrverify")
}

// generate makes the workload's trace from the seed: the seed is XOR-ed
// into the catalog profile's own seed and nothing else changes, so the
// program under test receives only generated records.
func (b *bench) generate(workload string) (*trace.Preloaded, error) {
	sz := sizes[workload]
	p, err := smrseek.Workload(sz.profile)
	if err != nil {
		return nil, err
	}
	p.Seed ^= b.seed
	return smrseek.PreloadRecords(p.Generate(sz.scale * b.factor)), nil
}

// lsConfig is the configuration smrd gives a volume: always
// log-structured, the frontier where -frontier put it.
func lsConfig(frontier int64, defrag, prefetch, cache bool) smrseek.Config {
	cfg := smrseek.Config{LogStructured: true, FrontierStart: frontier}
	if defrag {
		d := smrseek.DefaultDefrag()
		cfg.Defrag = &d
	}
	if prefetch {
		p := smrseek.DefaultPrefetch()
		cfg.Prefetch = &p
	}
	if cache {
		c := smrseek.DefaultCache()
		cfg.Cache = &c
	}
	return cfg
}

// reference steps recs through an in-process simulator passes times —
// exactly what a volume actor does with the same requests — and returns
// the simulator for its Stats and layer state.
func reference(cfg smrseek.Config, recs []trace.Record, passes int) (*smrseek.Simulator, error) {
	sim, err := smrseek.NewSimulator(cfg)
	if err != nil {
		return nil, err
	}
	for p := 0; p < passes; p++ {
		for _, r := range recs {
			sim.Step(r)
		}
	}
	return sim, nil
}

// sameStats checks that a served volume's Stat is bit-identical to the
// in-process reference. The server zeroes Stats.Config before
// marshalling, and a journaled volume alone counts Durability; both are
// cleared on both sides before the comparison.
func sameStats(what string, served, ref smrseek.Stats) error {
	served.Config, ref.Config = smrseek.Config{}, smrseek.Config{}
	served.Durability, ref.Durability = smrseek.Durability{}, smrseek.Durability{}
	a, err := json.Marshal(served)
	if err != nil {
		return err
	}
	c, err := json.Marshal(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, c) {
		return fmt.Errorf("%s: served Stat differs from the in-process run of the same records\nserved: %s\nin-process: %s", what, a, c)
	}
	return nil
}

func hostWriteSectors(recs []trace.Record) int64 {
	var n int64
	for _, r := range recs {
		if r.Kind == smrseek.Write {
			n += r.Extent.Count
		}
	}
	return n
}

// baselineReadSeeks is the denominator of read_saf: the read seeks of
// the same records on the untranslated (NoLS) infinite disk.
func baselineReadSeeks(recs []trace.Record, passes int) (int64, error) {
	sim, err := reference(smrseek.Config{}, recs, passes)
	if err != nil {
		return 0, err
	}
	n := sim.Stats().Disk.ReadSeeks
	if n == 0 {
		return 0, fmt.Errorf("baseline run has no read seeks; read_saf is undefined for this trace")
	}
	return n, nil
}

// measured is one window's observations, from which the end-to-end
// metrics every workload shares are derived.
type measured struct {
	setup  time.Duration
	marks  []mark    // the window cut into slices (see sampler.go)
	latNs  []int64   // one sample per record
	tailNs []float64 // the 99th percentile of each part of the samples
	rssKiB int64
}

func (m measured) fill(o *outcome) {
	rate, cpu, slices := sliceMedians(m.marks, 0)
	o.Metrics["setup_s"] = m.setup.Seconds()
	o.Metrics["ops_per_s"] = rate
	o.Metrics["cpu_us_per_op"] = cpu
	o.Metrics["lat_p50_us"] = float64(percentile(m.latNs, 50)) / 1e3
	o.Metrics["lat_p99_us"] = median(m.tailNs) / 1e3
	o.Metrics["peak_rss_mb"] = float64(m.rssKiB) / 1024
	o.Samples["ops_per_s"], o.Samples["cpu_us_per_op"] = slices, slices
	o.Samples["lat_p50_us"], o.Samples["lat_p99_us"] = len(m.latNs), len(m.latNs)
}

// served describes an smrd child and the load one workload puts on it.
type served struct {
	volSpec   string   // smrd -volumes
	vols      []string // one connection per volume
	window    int
	journaled bool     // give the child a fresh -journal-dir
	extra     []string // further smrd flags
	agePasses int      // untimed replays before the measured one
	metrics   bool     // start with -metrics-addr (traced runs)
}

// start execs smrd for the workload and ages its volumes.
func (b *bench) start(s served, pre *trace.Preloaded) (*child, error) {
	args := append([]string{"-volumes", s.volSpec, "-frontier", strconv.FormatInt(int64(pre.MaxLBA()), 10)}, s.extra...)
	var dir string
	if s.journaled {
		var err error
		if dir, err = os.MkdirTemp(b.workDir, "journal-"); err != nil {
			return nil, err
		}
		args = append(args, "-journal-dir", dir)
	}
	if s.metrics {
		args = append(args, "-metrics-addr", "127.0.0.1:0")
	}
	c, err := startSmrd(b.bin("smrd"), args...)
	if err != nil {
		return nil, err
	}
	c.journalDir = dir
	for p := 0; p < s.agePasses; p++ {
		st, _, err := replayAll(c.addr, s.vols, pre.Records(), s.window, new(atomic.Int64))
		if err == nil {
			if m := merge(st); m.Failed != 0 {
				err = fmt.Errorf("%d of %d records failed", m.Failed, m.Attempted)
			}
		}
		if err != nil {
			c.stop(syscall.SIGKILL)
			return nil, fmt.Errorf("ageing pass: %w", err)
		}
	}
	return c, nil
}

// setUp does a served workload's whole set-up — build, generate, start
// smrd, age — reps times, and returns the last child with the median
// set-up time. The children before the last are killed.
func (b *bench) setUp(workload string, s served, reps int) (*trace.Preloaded, *child, time.Duration, error) {
	var (
		pre  *trace.Preloaded
		c    *child
		took []float64
	)
	for i := 0; i < reps; i++ {
		if c != nil {
			c.stop(syscall.SIGKILL)
		}
		t0 := time.Now()
		err := b.prepare()
		if err == nil {
			pre, err = b.generate(workload)
		}
		if err == nil {
			c, err = b.start(s, pre)
		}
		if err != nil {
			return nil, nil, 0, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	return pre, c, time.Duration(median(took) * float64(time.Second)), nil
}

// servedRun is what one measured window on a child observed; the child
// is still running, for the caller to stop or kill.
type servedRun struct {
	load    loadStats
	wall    time.Duration
	marks   []mark
	stats   map[string]smrseek.Stats // per volume, after the load
	loaderS float64                  // the driver's own CPU during the window
	before  map[string]obsvSnap      // /metrics around the window, with served.metrics
	after   map[string]obsvSnap
}

// measure replays recs to every volume of a started child, one
// closed-loop connection per volume, and fetches each volume's Stat.
// Any record not acknowledged OK fails the run.
func (b *bench) measure(s served, c *child, recs []trace.Record) (*servedRun, error) {
	run := &servedRun{stats: map[string]smrseek.Stats{}}
	fail := func(err error) (*servedRun, error) {
		c.stop(syscall.SIGKILL)
		return nil, err
	}
	var err error
	if s.metrics {
		if run.before, err = scrapeAll(c.metrics, s.vols); err != nil {
			return fail(err)
		}
	}
	self0 := selfUsage()
	smp := startSampler(func() (int64, error) { return processCPUNs(c.cmd.Process.Pid) })
	st, wall, err := replayAll(c.addr, s.vols, recs, s.window, &smp.ops)
	marks, serr := smp.finish()
	if err == nil {
		err = serr
	}
	if err != nil {
		return fail(err)
	}
	run.loaderS = selfUsage().cpuS() - self0.cpuS()
	run.load, run.wall, run.marks = merge(st), wall, marks
	if run.load.Failed != 0 {
		return fail(fmt.Errorf("%d of %d records were not acknowledged OK", run.load.Failed, run.load.Attempted))
	}
	for _, v := range s.vols {
		vs, err := statVolume(c.addr, v)
		if err != nil {
			return fail(fmt.Errorf("stat %s: %w", v, err))
		}
		run.stats[v] = vs
	}
	if s.metrics {
		if run.after, err = scrapeAll(c.metrics, s.vols); err != nil {
			return fail(err)
		}
	}
	return run, nil
}

func (run *servedRun) measured(setup time.Duration, used usage) measured {
	return measured{setup: setup, marks: run.marks, latNs: run.load.LatNs, tailNs: run.load.TailNs, rssKiB: used.MaxRSSKiB}
}

// ---------------------------------------------------------------- wire-sync

// wireSyncVolumes is how many volumes — and synchronous connections —
// wire-sync drives. Two connections on two cores leave both cores
// waiting for each other most of the time, and in the sandbox the cost
// of waking an idle virtual CPU swings by 2x from minute to minute;
// eight closed-loop clients keep both cores busy, so the window measures
// the CPU work of framing and actor hand-off, which repeats.
var wireSyncVolumes = []string{"a", "b", "c", "d", "e", "f", "g", "h"}

func (b *bench) wireSync() (*outcome, error) {
	s := served{volSpec: "a,b,c,d,e,f,g,h", vols: wireSyncVolumes, window: 1}
	pre, c, setup, err := b.setUp("wire-sync", s, b.cheapSetups)
	if err != nil {
		return nil, err
	}
	recs := pre.Records()
	run, err := b.measure(s, c, recs)
	if err != nil {
		return nil, err
	}
	used, err := c.stop(syscall.SIGTERM)
	if err != nil {
		return nil, err
	}

	cfg := lsConfig(int64(pre.MaxLBA()), false, false, false)
	ref, err := reference(cfg, recs, 1)
	if err != nil {
		return nil, err
	}
	for _, v := range s.vols {
		if err := sameStats("volume "+v, run.stats[v], ref.Stats()); err != nil {
			return nil, err
		}
	}
	base, err := baselineReadSeeks(recs, 1)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	o.Attempted, o.Failed = run.load.Attempted, run.load.Failed
	o.amplification(float64(ref.Stats().Disk.ReadSeeks)/float64(base),
		float64(ref.Stats().Disk.WriteSectors)/float64(hostWriteSectors(recs)))
	if b.trace {
		return o, b.traceServed(o, "wire-sync", s, pre, run, used, cfg, 1)
	}
	run.measured(setup, used).fill(o)
	return o, nil
}

// ---------------------------------------------------------------- mech-pipe

func (b *bench) mechPipe() (*outcome, error) {
	s := served{volSpec: "a=defrag+prefetch+cache", vols: []string{"a"}, window: 32, agePasses: 1}
	pre, c, setup, err := b.setUp("mech-pipe", s, 1)
	if err != nil {
		return nil, err
	}
	recs := pre.Records()
	run, err := b.measure(s, c, recs)
	if err != nil {
		return nil, err
	}
	used, err := c.stop(syscall.SIGTERM)
	if err != nil {
		return nil, err
	}

	cfg := lsConfig(int64(pre.MaxLBA()), true, true, true)
	base, err := baselineReadSeeks(recs, 2)
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.Attempted, o.Failed = run.load.Attempted, run.load.Failed
	st := run.stats["a"] // checked against the in-process run below
	o.amplification(float64(st.Disk.ReadSeeks)/float64(base),
		float64(st.Disk.WriteSectors)/float64(2*hostWriteSectors(recs)))
	if b.trace {
		// The traced run's top in-process rung is the reference below,
		// run there under a span instead of twice.
		return o, b.traceServed(o, "mech-pipe", s, pre, run, used, cfg, 2)
	}
	// The reference replays the records twice, as the volume did: the
	// ageing pass, then the measured one.
	ref, err := reference(cfg, recs, 2)
	if err != nil {
		return nil, err
	}
	if err := sameStats("volume a", st, ref.Stats()); err != nil {
		return nil, err
	}
	run.measured(setup, used).fill(o)
	return o, nil
}

// ------------------------------------------------------------ durable-write

// layerState is what survives a restart: the log-structured layer's
// frontier, extent-map size and sectors-written counter.
type layerState struct {
	Frontier, Written int64
	MapSize           int
}

func stateOf(sim *smrseek.Simulator) layerState {
	snap := sim.LS().Snapshot()
	return layerState{Frontier: int64(snap.Frontier), Written: snap.Written, MapSize: len(snap.Mappings)}
}

// recoveredState reads the checkpoint a restarted smrd wrote for the
// state it recovered: opening a journaled volume over existing state
// folds checkpoint plus replay into a fresh checkpoint before serving.
func recoveredState(volDir string) (layerState, error) {
	snap, err := journal.ReadCheckpointFile(journal.CheckpointPath(volDir))
	if err != nil {
		return layerState{}, err
	}
	if snap == nil {
		return layerState{}, fmt.Errorf("%s: no checkpoint after restart", volDir)
	}
	return layerState{Frontier: int64(snap.Frontier), Written: snap.Written, MapSize: len(snap.Mappings)}, nil
}

var replayedRe = regexp.MustCompile(`(\d+) journal records replayed`)

// replayedRecords parses the restarted daemon's recovery line.
func replayedRecords(c *child, vol string) (int64, error) {
	line := c.line("volume " + vol + " recovered")
	m := replayedRe.FindStringSubmatch(line)
	if m == nil {
		return 0, fmt.Errorf("restarted smrd printed no recovery line for volume %s:\n%s", vol, c.output())
	}
	return strconv.ParseInt(m[1], 10, 64)
}

// restart starts smrd over an existing journal root and returns the
// child once a Stat succeeded, with the exec-to-first-Stat time.
func (b *bench) restart(journalRoot string, frontier int64, extra ...string) (*child, time.Duration, error) {
	args := append([]string{"-volumes", "a", "-frontier", strconv.FormatInt(frontier, 10), "-journal-dir", journalRoot}, extra...)
	c, err := startSmrd(b.bin("smrd"), args...)
	if err != nil {
		return nil, 0, err
	}
	if _, err := statVolume(c.addr, "a"); err != nil {
		c.stop(syscall.SIGKILL)
		return nil, 0, fmt.Errorf("stat after restart: %w", err)
	}
	return c, time.Since(c.started), nil
}

func (b *bench) durableWrite() (*outcome, error) {
	s := served{volSpec: "a", vols: []string{"a"}, window: 32, journaled: true}
	pre, c, setup, err := b.setUp("durable-write", s, b.cheapSetups)
	if err != nil {
		return nil, err
	}
	recs := pre.Records()
	run, err := b.measure(s, c, recs)
	if err != nil {
		return nil, err
	}
	// Every record is acknowledged; the crash comes now. SIGKILL leaves
	// the page cache intact, so this checks the write-ahead order and the
	// recovery path, not the device's flush.
	used, _ := c.stop(syscall.SIGKILL)

	cfg := lsConfig(int64(pre.MaxLBA()), false, false, false)
	ref, err := reference(cfg, recs, 1)
	if err != nil {
		return nil, err
	}
	if err := sameStats("volume a before the kill", run.stats["a"], ref.Stats()); err != nil {
		return nil, err
	}
	acked := run.stats["a"].Writes
	if got := run.stats["a"].Durability.JournalAppends; got != acked {
		return nil, fmt.Errorf("durable-write: %d journal appends for %d acknowledged writes", got, acked)
	}
	again, _, err := b.restart(c.journalDir, int64(pre.MaxLBA()))
	if err != nil {
		return nil, err
	}
	if _, err := again.stop(syscall.SIGTERM); err != nil {
		return nil, err
	}
	got, err := recoveredState(filepath.Join(c.journalDir, "a"))
	if err != nil {
		return nil, err
	}
	if want := stateOf(ref); got != want {
		return nil, fmt.Errorf("durable-write: state after kill and restart %+v, want %+v (acknowledged writes lost)", got, want)
	}
	if out, err := exec.Command(b.bin("smrverify"), c.journalDir).CombinedOutput(); err != nil {
		return nil, fmt.Errorf("smrverify %s: %w\n%s", c.journalDir, err, out)
	}
	base, err := baselineReadSeeks(recs, 1)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	o.Attempted, o.Failed = run.load.Attempted, run.load.Failed
	o.amplification(float64(ref.Stats().Disk.ReadSeeks)/float64(base),
		float64(ref.Stats().Disk.WriteSectors)/float64(hostWriteSectors(recs)))
	if b.trace {
		return o, b.traceServed(o, "durable-write", s, pre, run, used, cfg, 1)
	}
	run.measured(setup, used).fill(o)
	return o, nil
}

// ------------------------------------------------------------ crash-recover

func (b *bench) crashRecover() (*outcome, error) {
	t0 := time.Now()
	// Set-up: write the whole trace through a journaled volume that
	// never checkpoints, then kill it. The directory left behind is the
	// input of every measured restart.
	s := served{volSpec: "a", vols: []string{"a"}, window: 32, journaled: true, extra: []string{"-checkpoint-every", "0"}}
	pre, c, _, err := b.setUp("crash-recover", s, 1)
	if err != nil {
		return nil, err
	}
	recs := pre.Records()
	frontier := int64(pre.MaxLBA())
	prep, err := b.measure(s, c, recs)
	if err != nil {
		return nil, err
	}
	c.stop(syscall.SIGKILL)
	pristine := filepath.Join(c.journalDir, "a")
	appends := prep.stats["a"].Durability.JournalAppends
	fi, err := os.Stat(journal.JournalPath(pristine))
	if err != nil {
		return nil, err
	}
	cfg := lsConfig(frontier, false, false, false)
	ref, err := reference(cfg, recs, 1)
	if err != nil {
		return nil, err
	}
	if err := sameStats("volume a before the kill", prep.stats["a"], ref.Stats()); err != nil {
		return nil, err
	}
	want := stateOf(ref)
	setup := time.Since(t0)

	// An operation here is one restart: its latency is the time from
	// exec to the first successful Stat.
	var (
		latNs  []int64
		cpuUs  []float64
		rssKiB int64
	)
	for i := 0; i < restarts; i++ {
		dir := filepath.Join(b.workDir, fmt.Sprintf("restart-%d", i))
		if err := copyDir(pristine, filepath.Join(dir, "a")); err != nil {
			return nil, err
		}
		again, took, err := b.restart(dir, frontier, "-checkpoint-every", "0")
		if err != nil {
			return nil, err
		}
		used, _ := again.stop(syscall.SIGKILL)
		replayed, err := replayedRecords(again, "a")
		if err != nil {
			return nil, err
		}
		if replayed != appends {
			return nil, fmt.Errorf("crash-recover restart %d: %d journal records replayed, want %d", i, replayed, appends)
		}
		got, err := recoveredState(filepath.Join(dir, "a"))
		if err != nil {
			return nil, err
		}
		if got != want {
			return nil, fmt.Errorf("crash-recover restart %d: recovered state %+v, want %+v", i, got, want)
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		latNs = append(latNs, int64(took))
		cpuUs = append(cpuUs, used.cpuS()*1e6/float64(appends))
		rssKiB = max(rssKiB, used.MaxRSSKiB)
	}
	base, err := baselineReadSeeks(recs, 1)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	o.Attempted = int64(restarts) * appends
	o.Exact["journal_bytes_per_write"] = float64(fi.Size()) / float64(appends)
	o.amplification(float64(ref.Stats().Disk.ReadSeeks)/float64(base),
		float64(ref.Stats().Disk.WriteSectors)/float64(hostWriteSectors(recs)))
	if b.trace {
		return o, b.traceCrashRecover(o, pre, pristine, latNs, cpuUs, appends, fi.Size())
	}
	mid := float64(percentile(latNs, 50))
	o.Metrics["setup_s"] = setup.Seconds()
	o.Metrics["ops_per_s"] = float64(appends) / (mid / 1e9) // journal records replayed per second of the median restart
	o.Metrics["lat_p50_us"] = mid / 1e3
	// Seven samples carry no 99th percentile; the tail reported is the
	// second slowest restart, which one burst of the sandbox cannot set.
	o.Metrics["lat_p99_us"] = float64(percentile(latNs, 100*float64(restarts-1)/restarts)) / 1e3
	o.Metrics["cpu_us_per_op"] = median(cpuUs)
	o.Metrics["peak_rss_mb"] = float64(rssKiB) / 1024
	for _, name := range []string{"ops_per_s", "lat_p50_us", "lat_p99_us", "cpu_us_per_op"} {
		o.Samples[name] = restarts
	}
	return o, nil
}

// --------------------------------------------------------------- band-clean

// bandDevice is the finite banded device of the band-clean workload:
// 1 MiB bands and a 32 MiB persistent cache, small enough that the
// cleaner runs continuously under the trace's rewrites.
func bandDevice() (*smrseek.BandDevice, error) {
	return smrseek.NewBandDevice(smrseek.BandConfig{BandSectors: 2048, CacheSectors: 65536, Policy: smrseek.PolA})
}

func (b *bench) bandClean() (*outcome, error) {
	var (
		pre  *trace.Preloaded
		sim  *smrseek.Simulator
		dev  *smrseek.BandDevice
		took []float64
	)
	for i := 0; i < b.cheapSetups; i++ {
		t0 := time.Now()
		// Nothing here runs smrd, but set-up is the same work for every
		// workload, so a slower build shows everywhere.
		err := b.prepare()
		if err == nil {
			pre, err = b.generate("band-clean")
		}
		if err == nil {
			dev, err = bandDevice()
		}
		if err == nil {
			sim, err = smrseek.NewSimulator(smrseek.Config{Device: dev})
		}
		if err != nil {
			return nil, err
		}
		took = append(took, time.Since(t0).Seconds())
	}
	recs := pre.Records()
	latNs := make([]int64, len(recs))

	cpu0, err := processCPUNs(0)
	if err != nil {
		return nil, err
	}
	marks := []mark{{cpuNs: cpu0}}
	start := time.Now()
	prev, nextMark := start, start.Add(sliceEvery)
	for i, r := range recs {
		sim.Step(r)
		now := time.Now()
		latNs[i] = int64(now.Sub(prev))
		prev = now
		if now.After(nextMark) || i == len(recs)-1 {
			cpu, _ := processCPUNs(0) // the first call succeeded
			marks = append(marks, mark{at: now.Sub(start), ops: int64(i + 1), cpuNs: cpu})
			nextMark = now.Add(sliceEvery)
		}
	}
	wall := time.Since(start)

	st := sim.Stats()
	if err := dev.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("band-clean: device invariants: %w", err)
	}
	if st.Reads+st.Writes != int64(len(recs)) {
		return nil, fmt.Errorf("band-clean: %d reads + %d writes for %d records", st.Reads, st.Writes, len(recs))
	}
	if host := hostWriteSectors(recs); st.Cleaning.HostWriteSectors != host {
		return nil, fmt.Errorf("band-clean: device saw %d host write sectors, trace has %d", st.Cleaning.HostWriteSectors, host)
	}
	base, err := baselineReadSeeks(recs, 1)
	if err != nil {
		return nil, err
	}

	o := newOutcome()
	o.Attempted = int64(len(recs))
	o.amplification(float64(st.Disk.ReadSeeks)/float64(base), st.Cleaning.WriteAmp())
	if b.trace {
		return o, b.traceBandClean(o, pre, float64(wall.Nanoseconds())/float64(len(recs)), st)
	}
	measured{setup: time.Duration(median(took) * float64(time.Second)), marks: marks,
		latNs: latNs, tailNs: sliceTails(latNs), rssKiB: selfUsage().MaxRSSKiB}.fill(o)
	return o, nil
}

// run dispatches one workload by name.
func (b *bench) run(workload string) (*outcome, error) {
	switch workload {
	case "wire-sync":
		return b.wireSync()
	case "mech-pipe":
		return b.mechPipe()
	case "durable-write":
		return b.durableWrite()
	case "crash-recover":
		return b.crashRecover()
	case "band-clean":
		return b.bandClean()
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
}
