package obsv_test

import (
	"errors"
	"math/rand"
	"testing"

	"smrseek/internal/band"
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

// observerFunc adapts a function to the disk.Observer interface.
type observerFunc func(disk.Access)

func (f observerFunc) ObserveAccess(a disk.Access) { f(a) }

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

// runCollected runs cfg over recs with a Collector attached and
// returns the live stats and the collector's final snapshot. A journal
// crash is allowed; any other error fails t.
func runCollected(t *testing.T, cfg core.Config, recs []trace.Record) (core.Stats, obsv.Snapshot) {
	t.Helper()
	col := obsv.NewCollector()
	sim, err := core.NewSimulator(cfg, col)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(trace.NewSliceReader(recs))
	if err != nil && !errors.Is(err, journal.ErrCrashed) {
		t.Fatal(err)
	}
	return st, col.Snapshot()
}

// assertCollectorMatches checks that every logical op and every
// physical I/O of the run reached the probe: the snapshot's counters
// and histogram totals equal the live Stats.
func assertCollectorMatches(t *testing.T, name string, st core.Stats, snap obsv.Snapshot) {
	t.Helper()
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"Reads", snap.Reads, st.Reads},
		{"Writes", snap.Writes, st.Writes},
		{"Ops", snap.Ops, st.Reads + st.Writes},
		{"Seeks", snap.Seeks, st.Disk.TotalSeeks()},
		{"FragsPerRead.Total", snap.FragsPerRead.Total, st.Reads},
		{"ReadLatency.Total", snap.ReadLatency.Total, st.Disk.ReadOps},
		{"WriteLatency.Total", snap.WriteLatency.Total, st.Disk.WriteOps},
		{"JournalFsync.Total", snap.JournalFsync.Total, st.Durability.Checkpoints},
	} {
		if c.got != c.want {
			t.Errorf("%s: snapshot %s = %d, live stats say %d", name, c.what, c.got, c.want)
		}
	}
}

// TestReplayMatrix replays one workload through every layer/mechanism
// combination with a Collector attached and demands that the Collector
// saw exactly the run the live Stats describe — maintenance I/O (mcache),
// defrag write-backs and a banded device's cache and cleaning I/O
// included.
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
	banded := func() disk.Device {
		dev, err := band.New(band.Config{BandSectors: 512, CacheSectors: 4096})
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	all := func(cfg core.Config) core.Config {
		cfg.LogStructured, cfg.FrontierStart = true, frontier
		cfg.Defrag, cfg.Prefetch = &defrag, &prefetch
		cfg.Cache = &core.CacheConfig{CapacityBytes: 1 << 20}
		return cfg
	}
	cases := map[string]core.Config{
		"NoLS":        {},
		"LS":          {LogStructured: true, FrontierStart: frontier},
		"LS+all":      all(core.Config{}),
		"mcache":      {CustomLayer: mc},
		"NoLS@band":   {Device: banded()},
		"LS+all@band": all(core.Config{Device: banded()}),
	}
	for name, cfg := range cases {
		st, snap := runCollected(t, cfg, recs)
		assertCollectorMatches(t, name, st, snap)
		if name == "mcache" && st.MaintReads == 0 {
			t.Error("mcache variant produced no maintenance I/O")
		}
		if name == "LS+all" && st.DefragWritebacks == 0 {
			t.Error("LS+all variant produced no defrag write-back")
		}
		if name == "NoLS@band" && (st.Cleaning.CachedWrites == 0 || st.Cleaning.CleanRuns == 0) {
			t.Errorf("banded NoLS variant neither cached nor cleaned: %+v", st.Cleaning)
		}
	}
}

// TestReplayCrashRecover runs a journaled workload that crashes
// mid-record, then finishes it on the layer recovered from the torn
// journal (journaled again), with a Collector attached to each run: both
// snapshots must match their run's live Stats, checkpoint fsyncs included.
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
	st, snap := runCollected(t, cfg, recs)
	log.Close()
	if !st.Durability.Crashed {
		t.Fatal("crash point did not fire")
	}
	if st.Durability.Checkpoints == 0 {
		t.Error("crash run took no checkpoint")
	}
	assertCollectorMatches(t, "crash-run", st, snap)

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
	st2, snap2 := runCollected(t, cfg2, recs[60:])
	if st2.Durability.Crashed {
		t.Fatal("continuation run crashed unexpectedly")
	}
	if st2.Durability.Checkpoints == 0 {
		t.Error("continuation run took no checkpoint")
	}
	assertCollectorMatches(t, "recover-run", st2, snap2)
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
	var seeks int64
	sim.Disk().AddObserver(observerFunc(func(a disk.Access) {
		if a.Seeked {
			cdf.Observe(float64(a.Distance))
			seeks++
		}
	}))
	st, err := sim.Run(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}

	snap := col.Snapshot()
	pts := snap.SeekDistance.CDF()
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

	if snap.Ops != st.Reads+st.Writes {
		t.Errorf("Ops = %d, want %d", snap.Ops, st.Reads+st.Writes)
	}
	if snap.Seeks != seeks {
		t.Errorf("Seeks = %d, want %d", snap.Seeks, seeks)
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
}
