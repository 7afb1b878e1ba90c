package obsv_test

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/mcache"
	"smrseek/internal/metrics"
	"smrseek/internal/obsv"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
)

// workload builds a deterministic read/write mix that fragments heavily,
// so every mechanism path (cache, prefetch, defrag relocation) fires.
func workload(seed int64, n int) []trace.Record {
	rng := rand.New(rand.NewSource(seed))
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		kind := disk.Write
		if rng.Intn(3) == 0 {
			kind = disk.Read
		}
		recs = append(recs, trace.Record{
			Time:   int64(i),
			Kind:   kind,
			Extent: geom.Ext(rng.Int63n(20000), rng.Int63n(64)+1),
		})
	}
	return recs
}

// runTraced runs cfg over recs with a binary tracer attached and
// returns the live stats (Config cleared for comparison) plus the
// recorded trace. A journal crash is allowed; any other error fails t.
func runTraced(t *testing.T, cfg core.Config, recs []trace.Record) (core.Stats, []byte) {
	t.Helper()
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obsv.NewTracer(&buf)
	sim.AddProbe(tr)
	st, err := sim.Run(trace.NewSliceReader(recs))
	if err != nil && !errors.Is(err, journal.ErrCrashed) {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("tracer: %v", err)
	}
	st.Config = core.Config{}
	return st, buf.Bytes()
}

func assertReplayMatches(t *testing.T, name string, want core.Stats, raw []byte) {
	t.Helper()
	got, err := obsv.Replay(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: replay: %v", name, err)
	}
	if got != want {
		t.Errorf("%s: replayed stats diverge\n got: %+v\nwant: %+v", name, got, want)
	}
}

// replayFile folds the binary trace file at path back into Stats.
func replayFile(path string) (core.Stats, error) {
	f, err := os.Open(path)
	if err != nil {
		return core.Stats{}, err
	}
	defer f.Close()
	return obsv.Replay(f)
}

// TestReplayMatrix replays traces of every layer/mechanism
// combination and demands bit-identical Stats.
func TestReplayMatrix(t *testing.T) {
	recs := workload(42, 800)
	frontier := core.FrontierFor(recs)
	defrag := core.DefaultDefragConfig()
	prefetch := core.DefaultPrefetchConfig()

	mc, err := mcache.New(mcache.Config{
		DeviceSectors: 32 << 13, ZoneSectors: 1 << 13, CacheSectors: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]core.Config{
		"NoLS": {},
		"LS":   {LogStructured: true, FrontierStart: frontier},
		"LS+all": {LogStructured: true, FrontierStart: frontier,
			Defrag: &defrag, Prefetch: &prefetch,
			Cache: &core.CacheConfig{CapacityBytes: 1 << 20}},
		"mcache": {CustomLayer: mc},
	}
	for name, cfg := range cases {
		st, raw := runTraced(t, cfg, recs)
		assertReplayMatches(t, name, st, raw)
		if name == "mcache" && st.MaintReads == 0 {
			t.Error("mcache variant produced no maintenance I/O")
		}
	}
}

// TestReplayCrashRecover is the acceptance test: trace a run that
// crashes at an injected point, replay it to the crash run's exact
// Stats; then recover the layer from disk, finish the workload on it
// (journaled again, traced again) and replay that run exactly too.
func TestReplayCrashRecover(t *testing.T) {
	recs := workload(7, 500)
	frontier := core.FrontierFor(recs)
	defrag := core.DefaultDefragConfig()

	dir := t.TempDir()
	log, err := journal.Open(dir, frontier)
	if err != nil {
		t.Fatal(err)
	}
	log.CrashAfter(60, 13) // torn mid-record crash
	cfg := core.Config{LogStructured: true, FrontierStart: frontier,
		Defrag:  &defrag,
		Journal: &core.JournalConfig{Log: log, CheckpointEvery: 32}}
	st, raw := runTraced(t, cfg, recs)
	log.Close()
	if !st.Durability.Crashed {
		t.Fatal("crash point did not fire")
	}
	assertReplayMatches(t, "crash-run", st, raw)

	recovered, rst, err := stl.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rst.TornTail {
		t.Error("torn tail not detected on recovery")
	}
	log2, err := journal.Open(t.TempDir(), recovered.Frontier())
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	if err := log2.Checkpoint(recovered.Snapshot()); err != nil {
		t.Fatal(err)
	}
	cfg2 := core.Config{CustomLayer: recovered,
		Journal: &core.JournalConfig{Log: log2, CheckpointEvery: 32}}
	st2, raw2 := runTraced(t, cfg2, recs[60:])
	if st2.Durability.Crashed {
		t.Fatal("continuation run crashed unexpectedly")
	}
	assertReplayMatches(t, "recover-run", st2, raw2)
}

func TestTraceFileRoundTrip(t *testing.T) {
	recs := workload(3, 300)
	frontier := core.FrontierFor(recs)
	path := filepath.Join(t.TempDir(), "run.trace")
	tr, err := obsv.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := core.NewSimulator(core.Config{LogStructured: true, FrontierStart: frontier})
	if err != nil {
		t.Fatal(err)
	}
	sim.AddProbe(tr)
	st, err := sim.Run(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := replayFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Config = core.Config{}
	if got != st {
		t.Errorf("file round trip diverges\n got: %+v\nwant: %+v", got, st)
	}
}

func TestTextTracer(t *testing.T) {
	recs := workload(9, 120)
	frontier := core.FrontierFor(recs)
	sim, err := core.NewSimulator(core.Config{LogStructured: true, FrontierStart: frontier})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := obsv.NewTextTracer(&buf)
	sim.AddProbe(tr)
	if _, err := sim.Run(trace.NewSliceReader(recs)); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"op ", "read  lba", "write lba", "access", "seek=", "summary waf="} {
		if !strings.Contains(out, want) {
			t.Errorf("text trace missing %q:\n%s", want, out[:min(len(out), 600)])
		}
	}
	// A ".txt" Create selects the text sink.
	path := filepath.Join(t.TempDir(), "run.txt")
	tt, err := obsv.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tt.OnSummary(core.Summary{WAF: 1})
	if err := tt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := replayFile(path); err == nil {
		t.Error("replaying a text trace must fail")
	}
}

func TestReplayErrors(t *testing.T) {
	if _, err := obsv.Replay(bytes.NewReader(nil)); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := obsv.Replay(strings.NewReader("not a trace at all")); err == nil {
		t.Error("bad magic accepted")
	}
	// A version-1 trace carried fault flags and a second summary record
	// this reader no longer decodes.
	if _, err := obsv.Replay(strings.NewReader("SMRTRC\x00\x01")); err == nil {
		t.Error("version-1 header accepted")
	}
	// Valid header, torn record.
	var buf bytes.Buffer
	tr := obsv.NewTracer(&buf)
	tr.OnMech(core.MechEvent{Kind: core.MechCacheHit})
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	if _, err := obsv.Replay(bytes.NewReader(whole[:len(whole)-5])); err == nil {
		t.Error("torn record accepted")
	}
	// Unknown record kind.
	bad := append([]byte(nil), whole...)
	bad[8] = 0xEE // first record's kind byte
	if _, err := obsv.Replay(bytes.NewReader(bad)); err == nil {
		t.Error("unknown record kind accepted")
	}
}

// TestGlobalProbe checks that a collector attached process-wide via
// core.SetGlobalProbe observes every simulator built while it is set —
// the hook the experiments CLI's metrics endpoint relies on — and
// nothing built after detaching.
func TestGlobalProbe(t *testing.T) {
	recs := workload(21, 200)
	col := obsv.NewCollector()
	core.SetGlobalProbe(col)
	defer core.SetGlobalProbe(nil)

	var total int64
	for _, cfg := range []core.Config{{}, {LogStructured: true, FrontierStart: core.FrontierFor(recs)}} {
		sim, err := core.NewSimulator(cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sim.Run(trace.NewSliceReader(recs))
		if err != nil {
			t.Fatal(err)
		}
		total += st.Reads + st.Writes
	}
	if got := col.Snapshot().Ops; got != total {
		t.Errorf("global probe saw %d ops, want %d across both runs", got, total)
	}

	core.SetGlobalProbe(nil)
	sim, err := core.NewSimulator(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(trace.NewSliceReader(recs)); err != nil {
		t.Fatal(err)
	}
	if got := col.Snapshot().Ops; got != total {
		t.Errorf("detached probe still fed: %d ops, want %d", got, total)
	}
}

// TestCollectorFig4 checks the one-pass histogram CDF against the exact
// per-sample CDF the Figure 4 pipeline builds: at every boundary point
// the histogram emits, the two must agree bit for bit.
func TestCollectorFig4(t *testing.T) {
	recs := workload(11, 3000)
	frontier := core.FrontierFor(recs)
	sim, err := core.NewSimulator(core.Config{LogStructured: true, FrontierStart: frontier})
	if err != nil {
		t.Fatal(err)
	}
	col := obsv.NewCollector()
	ls := sim.LS()
	col.SetStateFn(func() (geom.Sector, int) { return ls.Frontier(), ls.Map().Len() })
	sim.AddProbe(col)

	cdf := metrics.NewCDF()
	sim.Disk().AddObserver(disk.ObserverFunc(func(a disk.Access) {
		if a.Seeked {
			cdf.Observe(float64(a.Distance))
		}
	}))
	st, err := sim.Run(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}

	pts := col.SeekDistanceCDF()
	if len(pts) == 0 {
		t.Fatal("no seek-distance CDF points")
	}
	for _, p := range pts {
		if got := cdf.At(p.X); got != p.P {
			t.Errorf("CDF mismatch at %.0f: histogram %v, exact %v", p.X, p.P, got)
		}
	}
	if last := pts[len(pts)-1].P; last != 1 {
		t.Errorf("final CDF point P = %v, want 1", last)
	}

	snap := col.Snapshot()
	if snap.Ops != st.Reads+st.Writes {
		t.Errorf("Ops = %d, want %d", snap.Ops, st.Reads+st.Writes)
	}
	if snap.Seeks != int64(cdf.N()) {
		t.Errorf("Seeks = %d, want %d", snap.Seeks, cdf.N())
	}
	if snap.FragsPerRead.Total != st.Reads {
		t.Errorf("FragsPerRead.Total = %d, want %d reads", snap.FragsPerRead.Total, st.Reads)
	}
	if snap.ReadLatency.Total != st.Disk.ReadOps {
		t.Errorf("ReadLatency.Total = %d, want %d read attempts", snap.ReadLatency.Total, st.Disk.ReadOps)
	}
	if snap.MapSize == 0 || snap.Frontier == 0 {
		t.Errorf("progress gauges not polled: frontier=%d mapSize=%d", snap.Frontier, snap.MapSize)
	}
	if hs := snap.SeekDistance.CDF(); len(hs) != len(pts) {
		t.Errorf("snapshot CDF has %d points, collector %d", len(hs), len(pts))
	}
}
