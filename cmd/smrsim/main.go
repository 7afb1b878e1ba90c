// Command smrsim runs one workload (a named synthetic workload or a
// trace file) through the seek simulator under a chosen translation
// layer and mechanisms, and prints seek statistics and, with -all, the
// paper's Figure 11 comparison for that workload.
//
// Examples:
//
//	smrsim -workload w91 -all
//	smrsim -workload hm_1 -ls -cache -time
//	smrsim -trace disk0.csv -format msr -disk 0 -ls -prefetch
//	smrsim -workload hm_1 -journal /tmp/wal -checkpoint-every 1000
//	smrsim -workload hm_1 -journal /tmp/wal -crash-after 500   # then:
//	smrsim -journal /tmp/wal -recover
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"smrseek"
	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/metrics"
	"smrseek/internal/obsv"
	"smrseek/internal/report"
	"smrseek/internal/stl"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "smrsim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("smrsim", flag.ContinueOnError)
	var (
		workloadName = fs.String("workload", "", "named synthetic workload (see traceinfo -list)")
		scale        = fs.Float64("scale", 0.5, "workload scale (multiplies base op count)")
		tracePath    = fs.String("trace", "", "trace file to simulate instead of a named workload")
		format       = fs.String("format", "cp", `trace format for -trace: "msr", "cp" or "bin"`)
		diskNum      = fs.Int("disk", -1, "MSR disk number filter for -trace (-1 = all)")
		all          = fs.Bool("all", false, "run the full Figure 11 variant comparison")
		ls           = fs.Bool("ls", false, "use the log-structured layer")
		defrag       = fs.Bool("defrag", false, "enable opportunistic defragmentation (implies -ls)")
		prefetch     = fs.Bool("prefetch", false, "enable look-ahead-behind prefetching (implies -ls)")
		cache        = fs.Bool("cache", false, "enable 64 MB selective caching (implies -ls)")
		cacheMB      = fs.Int64("cache-mb", 64, "selective cache size in MiB (with -cache)")
		withTime     = fs.Bool("time", false, "also report modelled service time (7200 RPM drive)")
		timeout      = fs.Duration("timeout", 0, "abort the simulation after this duration (0 = no limit)")
		journalDir   = fs.String("journal", "", "write-ahead-journal directory: STL mutations are logged and checkpointed there (implies -ls)")
		ckptEvery    = fs.Int64("checkpoint-every", 4096, "checkpoint the STL after this many journal records (with -journal; 0 = never)")
		crashAfter   = fs.Int64("crash-after", 0, "inject a crash on the Nth journal append, leaving a torn record (with -journal)")
		recoverFlag  = fs.Bool("recover", false, "recover the STL state from the -journal directory; alone it just reports, with a workload it continues the run")
		hist         = fs.Bool("hist", false, "collect seek/fragmentation/latency histograms and print them (with the seek-distance CDF) after the run")
		metricsAddr  = fs.String("metrics-addr", "", `serve live JSON metrics and expvar on this address while the run is in flight (e.g. "127.0.0.1:8080")`)
		pprofFlag    = fs.Bool("pprof", false, "also serve net/http/pprof on -metrics-addr")
		geometry     = fs.String("geometry", "infinite", `disk geometry: "infinite" (the paper's §II model) or "band" (finite banded device)`)
		bandSize     = fs.Int64("band-size", 0, "band size in sectors for -geometry band (0 = the 10 MB default)")
		pcache       = fs.Int64("pcache", 0, "persistent cache size in sectors for -geometry band (0 disables the cache: rewrites stay in place)")
		cleanPolicy  = fs.String("clean-policy", "pol-a", `cache placement/cleaning policy for -geometry band: "pol-a", "pol-b" or "shelter"`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	setFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	recoverOnly := *recoverFlag && *workloadName == "" && *tracePath == ""
	if err := validateFlags(*scale, *timeout, *journalDir, *ckptEvery, *crashAfter,
		*recoverFlag, *all, *cacheMB); err != nil {
		return err
	}
	if err := checkModifiers(setFlags, *cache, *journalDir != "", *tracePath != "", *withTime, *all); err != nil {
		return err
	}
	obs := obsvOpts{hist: *hist, addr: *metricsAddr, pprof: *pprofFlag}
	if err := obs.validate(*all, recoverOnly); err != nil {
		return err
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	dev, err := buildDevice(*geometry, *bandSize, *pcache, *cleanPolicy, setFlags, *all)
	if err != nil {
		return err
	}

	// Standalone recovery: report what the journal directory holds.
	if *recoverFlag && *workloadName == "" && *tracePath == "" {
		return runRecoverOnly(out, *journalDir)
	}

	recs, name, err := loadRecords(*workloadName, *scale, *tracePath, *format, *diskNum)
	if err != nil {
		return err
	}
	c := smrseek.Characterize(recs)
	fmt.Fprintf(out, "workload %s: %s reads, %s writes, %.2f GB read, %.2f GB written\n",
		name, report.HumanCount(c.ReadCount), report.HumanCount(c.WriteCount), c.ReadGB(), c.WrittenGB())

	if *all {
		return runAll(ctx, out, recs)
	}

	cfg := smrseek.Config{LogStructured: *ls || *defrag || *prefetch || *cache || *journalDir != ""}
	if *defrag {
		d := smrseek.DefaultDefrag()
		cfg.Defrag = &d
	}
	if *prefetch {
		p := smrseek.DefaultPrefetch()
		cfg.Prefetch = &p
	}
	if *cache {
		cc := smrseek.CacheConfig{CapacityBytes: *cacheMB << 20}
		cfg.Cache = &cc
	}
	cfg.Device = dev

	var recovery *stl.ReplayStats
	if *journalDir != "" {
		if cfg.FrontierStart == 0 {
			cfg.FrontierStart = core.FrontierFor(recs)
		}
		// -recover resumes a directory that holds state; a fresh run
		// must not append to another run's history, which would no
		// longer describe one coherent state.
		held, err := journal.HoldsState(*journalDir)
		if err != nil {
			return err
		}
		if held != *recoverFlag {
			if held {
				return fmt.Errorf("journal directory %s already holds state; pass -recover to resume it or use an empty directory", *journalDir)
			}
			return fmt.Errorf("journal directory %s holds no state to recover", *journalDir)
		}
		lg, recovered, rst, err := stl.OpenDir(*journalDir, cfg.FrontierStart)
		if err != nil {
			return err
		}
		if recovered != nil {
			recovery = rst
			cfg.LogStructured = false
			cfg.CustomLayer = recovered
		}
		defer lg.Close()
		if *crashAfter > 0 {
			// Tear the record mid-payload: the worst-case torn write the
			// recovery path must detect and discard.
			lg.CrashAfter(*crashAfter, 12)
		}
		cfg.Journal = &core.JournalConfig{Log: lg, CheckpointEvery: *ckptEvery}
	}
	return runOne(ctx, out, smrseek.PreloadRecords(recs), cfg, *withTime, recovery, obs)
}

// buildDevice validates the geometry flags and builds the chosen device
// model — nil for the default infinite disk.
func buildDevice(geometry string, bandSize, pcacheSectors int64, policyName string,
	setFlags map[string]bool, all bool) (smrseek.Device, error) {
	switch geometry {
	case "infinite":
		for _, f := range []string{"band-size", "pcache", "clean-policy"} {
			if setFlags[f] {
				return nil, fmt.Errorf("-%s requires -geometry band", f)
			}
		}
		return nil, nil
	case "band":
		if all {
			return nil, fmt.Errorf("-geometry band cannot be combined with -all (the Figure 11 comparison is defined on the paper's infinite model)")
		}
		pol, err := smrseek.ParseBandPolicy(policyName)
		if err != nil {
			return nil, err
		}
		cfg := smrseek.BandConfig{BandSectors: bandSize, CacheSectors: pcacheSectors, Policy: pol}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return smrseek.NewBandDevice(cfg)
	default:
		return nil, fmt.Errorf("unknown geometry %q (want infinite or band)", geometry)
	}
}

// obsvOpts carries the observability flags: histogram collection and
// the live metrics endpoint.
type obsvOpts struct {
	hist  bool
	addr  string
	pprof bool
}

func (o obsvOpts) enabled() bool { return o.hist || o.addr != "" }

// validate rejects observability flags in modes that don't run exactly
// one simulation: -all runs the whole variant comparison and standalone
// -recover runs none. -crash-after IS compatible — the histograms cover
// the run up to the crash.
func (o obsvOpts) validate(all, recoverOnly bool) error {
	switch {
	case o.pprof && o.addr == "":
		return fmt.Errorf("-pprof requires -metrics-addr (pprof is served on the metrics endpoint)")
	case all && o.enabled():
		return fmt.Errorf("-hist/-metrics-addr cannot be combined with -all (they follow a single run)")
	case recoverOnly && o.enabled():
		return fmt.Errorf("-hist/-metrics-addr need a workload to observe; standalone -recover runs none")
	}
	return nil
}

// validateFlags rejects nonsensical flag combinations up front, before
// any trace is loaded or journal created.
func validateFlags(scale float64, timeout time.Duration, journalDir string,
	ckptEvery, crashAfter int64, recoverFlag, all bool, cacheMB int64) error {
	switch {
	case scale <= 0:
		return fmt.Errorf("-scale %v must be positive", scale)
	case timeout < 0:
		return fmt.Errorf("-timeout %v must not be negative", timeout)
	case cacheMB <= 0:
		return fmt.Errorf("-cache-mb %d must be positive", cacheMB)
	case ckptEvery < 0:
		return fmt.Errorf("-checkpoint-every %d must not be negative", ckptEvery)
	case crashAfter < 0:
		return fmt.Errorf("-crash-after %d must not be negative", crashAfter)
	case recoverFlag && journalDir == "":
		return fmt.Errorf("-recover requires -journal DIR (there is nothing to recover from)")
	case crashAfter > 0 && journalDir == "":
		return fmt.Errorf("-crash-after requires -journal DIR (crash points live in the journal)")
	case journalDir != "" && all:
		return fmt.Errorf("-journal cannot be combined with -all (journaling follows one run)")
	}
	return nil
}

// checkModifiers rejects a flag that only modifies another one when the
// flag it modifies is off, where it would otherwise be silently ignored.
func checkModifiers(setFlags map[string]bool, cache, journaled, traced, timed, all bool) error {
	for _, m := range []struct {
		flag, needs string
		ok          bool
	}{
		{"cache-mb", "-cache", cache},
		{"checkpoint-every", "-journal DIR", journaled},
		{"format", "-trace FILE", traced},
		{"disk", "-trace FILE", traced},
	} {
		if setFlags[m.flag] && !m.ok {
			return fmt.Errorf("-%s requires %s", m.flag, m.needs)
		}
	}
	if timed && all {
		return fmt.Errorf("-time cannot be combined with -all (the modelled time follows a single run)")
	}
	return nil
}

// runRecoverOnly recovers the STL state from the journal directory and
// reports what replay found, without running any workload.
func runRecoverOnly(out io.Writer, dir string) error {
	recovered, rst, err := stl.RecoverDir(dir)
	if err != nil {
		return err
	}
	m := recovered.Map()
	fmt.Fprintf(out, "recovered STL state from %s: frontier %d, %s mappings, %s mapped sectors\n",
		dir, recovered.Frontier(), report.HumanCount(int64(m.Len())), report.HumanCount(m.MappedSectors()))
	return report.DurabilityTable(replayDurability(rst)).Render(out)
}

// replayDurability converts recovery replay stats to the report's
// durability tallies.
func replayDurability(rst stl.ReplayStats) metrics.Durability {
	return metrics.Durability{
		Recovered:       true,
		RecordsReplayed: rst.Replayed,
		ReplayedSectors: rst.ReplayedSectors,
		TornTail:        rst.TornTail,
		FromCheckpoint:  rst.FromCheckpoint,
	}
}

func loadRecords(workloadName string, scale float64, tracePath, format string, diskNum int) ([]smrseek.Record, string, error) {
	switch {
	case workloadName != "" && tracePath != "":
		return nil, "", fmt.Errorf("pass -workload or -trace, not both")
	case workloadName != "":
		p, err := smrseek.Workload(workloadName)
		if err != nil {
			return nil, "", err
		}
		return p.Generate(scale), p.Name, nil
	case tracePath != "":
		f, err := os.Open(tracePath)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		r, err := smrseek.OpenTrace(f, smrseek.TraceFormat(format), diskNum)
		if err != nil {
			return nil, "", err
		}
		recs, err := smrseek.ReadAll(r)
		if err != nil {
			return nil, "", err
		}
		return recs, tracePath, nil
	default:
		return nil, "", fmt.Errorf("pass -workload NAME or -trace FILE (workloads: %v)", smrseek.Workloads())
	}
}

func runAll(ctx context.Context, out io.Writer, recs []smrseek.Record) error {
	cmp, err := smrseek.ComparePaperContext(ctx, recs)
	if err != nil {
		return err
	}
	tb := report.NewTable("seek amplification factor vs NoLS baseline",
		"variant", "read seeks", "write seeks", "read SAF", "write SAF", "total SAF")
	b := cmp.Baseline.Disk
	tb.AddRow("NoLS", report.HumanCount(b.ReadSeeks), report.HumanCount(b.WriteSeeks), 1.0, 1.0, 1.0)
	for _, v := range cmp.Variants {
		tb.AddRow(v.Name, report.HumanCount(v.Stats.Disk.ReadSeeks),
			report.HumanCount(v.Stats.Disk.WriteSeeks), v.Read, v.Write, v.Total)
	}
	return tb.Render(out)
}

func runOne(ctx context.Context, out io.Writer, pl *smrseek.Preloaded, cfg smrseek.Config,
	withTime bool, recovery *stl.ReplayStats, obs obsvOpts) error {
	// Baseline for SAF.
	base, err := smrseek.RunPreloadedContext(ctx, smrseek.Config{}, pl)
	if err != nil {
		return err
	}

	if cfg.LogStructured && cfg.FrontierStart == 0 {
		cfg.FrontierStart = pl.MaxLBA()
	}
	sim, err := smrseek.NewSimulator(cfg)
	if err != nil {
		return err
	}
	var col *obsv.Collector
	if obs.hist || obs.addr != "" {
		col = obsv.NewCollector()
		if ls := sim.LS(); ls != nil {
			col.SetStateFn(func() (geom.Sector, int) { return ls.Frontier(), ls.Map().Len() })
		}
		if cl, ok := sim.Disk().(core.Cleaner); ok {
			col.SetCleaningFn(cl.Cleaning)
		}
		sim.AddProbe(col)
	}
	if obs.addr != "" {
		srv, err := obsv.Serve(obs.addr, col, obs.pprof)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "serving metrics on http://%s/metrics\n", srv.Addr())
	}
	var acc *disk.TimeAccumulator
	if withTime {
		acc = disk.NewTimeAccumulator(disk.DefaultTimeModel())
		sim.Disk().AddObserver(acc)
	}
	st, err := sim.RunContext(ctx, pl.NewReader())
	crashed := errors.Is(err, journal.ErrCrashed)
	if err != nil && !crashed {
		return err
	}
	return renderOne(out, cfg, st, base, acc, col, recovery, obs, crashed)
}

// renderOne prints the result tables for the run.
func renderOne(out io.Writer, cfg smrseek.Config, st, base smrseek.Stats, acc *disk.TimeAccumulator,
	col *obsv.Collector, recovery *stl.ReplayStats, obs obsvOpts, crashed bool) error {
	tb := report.NewTable(fmt.Sprintf("%s results", cfg.Name()), "metric", "value")
	tb.AddRow("read seeks", report.HumanCount(st.Disk.ReadSeeks))
	tb.AddRow("write seeks", report.HumanCount(st.Disk.WriteSeeks))
	tb.AddRow("read SAF", metrics.SAF(st.Disk.ReadSeeks, base.Disk.ReadSeeks))
	tb.AddRow("write SAF", metrics.SAF(st.Disk.WriteSeeks, base.Disk.WriteSeeks))
	tb.AddRow("total SAF", metrics.SAF(st.Disk.TotalSeeks(), base.Disk.TotalSeeks()))
	tb.AddRow("fragmented reads", report.HumanCount(st.FragmentedReads))
	tb.AddRow("max fragments/read", st.MaxFragments)
	if cfg.Cache != nil {
		tb.AddRow("cache hits", report.HumanCount(st.CacheHits))
		tb.AddRow("cache invalidations", report.HumanCount(st.CacheInvalidations))
	}
	if cfg.Prefetch != nil {
		tb.AddRow("prefetch hits", report.HumanCount(st.PrefetchHits))
	}
	if cfg.Defrag != nil {
		tb.AddRow("defrag write-backs", report.HumanCount(st.DefragWritebacks))
	}
	if st.MaintSectors > 0 {
		tb.AddRow("maintenance reads", report.HumanCount(st.MaintReads))
		tb.AddRow("maintenance writes", report.HumanCount(st.MaintWrites))
		tb.AddRow("write amplification", st.WAF)
	}
	if acc != nil {
		tb.AddRow("modelled read time", acc.ReadTime.Round(time.Millisecond).String())
		tb.AddRow("modelled write time", acc.WriteTime.Round(time.Millisecond).String())
		tb.AddRow("modelled seek time", acc.SeekTime.Round(time.Millisecond).String())
	}
	if err := tb.Render(out); err != nil {
		return err
	}
	if st.Cleaning.Any() {
		fmt.Fprintln(out)
		if err := report.CleaningTable(st.Cleaning).Render(out); err != nil {
			return err
		}
	}
	if cfg.Journal != nil {
		d := st.Durability
		if recovery != nil {
			r := replayDurability(*recovery)
			d.Recovered = true
			d.RecordsReplayed = r.RecordsReplayed
			d.ReplayedSectors = r.ReplayedSectors
			d.TornTail = r.TornTail
			d.FromCheckpoint = r.FromCheckpoint
		}
		fmt.Fprintln(out)
		if err := report.DurabilityTable(d).Render(out); err != nil {
			return err
		}
	}
	if col != nil && obs.hist {
		snap := col.Snapshot()
		for _, h := range snap.Hists() {
			if h.Total == 0 {
				continue
			}
			fmt.Fprintln(out)
			if err := report.HistogramTable(h.Name, h.Unit, h.Buckets, h.Total).Render(out); err != nil {
				return err
			}
		}
		fmt.Fprintln(out)
		if err := report.CDFTable("seek distance CDF", "sectors", snap.SeekDistance.CDF()).Render(out); err != nil {
			return err
		}
	}
	if crashed {
		fmt.Fprintf(out, "\nsimulation crashed at the injected crash point after %s journal appends; run again with -recover to replay the journal\n",
			report.HumanCount(st.Durability.JournalAppends))
	}
	return nil
}
