package main

// The layer ladder: a traced run replays the workload's own records
// in-process at successive depths of the stack, one span per rung, by
// calling each layer's public functions from here. Nothing inside the
// program is instrumented. A layer's self time is its rung minus the
// rung below; the top rung is the real smrd run, so the self times sum
// to the end-to-end time per record by construction, and what the
// ladder adds is how that time divides.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"smrseek"
	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/obsv"
	"smrseek/internal/server"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
	"smrseek/internal/volume"
)

// traceShare is the prefix of the records a traced child replays: one
// quarter, compared with the untraced child at the same record.
const traceShare = 4

// rungCap bounds the records the service rungs (volume actor, in-process
// server) replay: their cost per record does not depend on the position
// in the trace, and a synchronous loopback round trip is slow.
const rungCap = 120_000

// sink receives the results of the bare loops so the compiler keeps them.
var sink int64

// span is one timed interval of the ladder.
type span struct {
	Name    string `json:"name"`
	Parent  string `json:"parent"` // the rung below, "" for the first
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Ops     int64  `json:"ops"`
	Allocs  uint64 `json:"allocs"`
}

func (s span) seconds() float64     { return float64(s.EndNs-s.StartNs) / 1e9 }
func (s span) nsPerOp() float64     { return float64(s.EndNs-s.StartNs) / float64(s.Ops) }
func (s span) allocsPerOp() float64 { return float64(s.Allocs) / float64(s.Ops) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

// measure runs fn under a span.
func (t *tracer) measure(name, parent string, ops int, fn func() error) (span, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	err := fn()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	s := span{Name: name, Parent: parent, StartNs: int64(start.Sub(t.epoch)), EndNs: int64(end.Sub(t.epoch)),
		Ops: int64(ops), Allocs: m1.Mallocs - m0.Mallocs}
	t.spans = append(t.spans, s)
	return s, err
}

// genRung times the generation of the workload's trace once more, under
// a span of its own.
func (t *tracer) genRung(o *outcome, b *bench, workload string, ops int) {
	sp, _ := t.measure("trace.gen", "", ops, func() error { _, err := b.generate(workload); return err })
	o.Metrics["trace.gen_s"] = sp.seconds()
}

// nextRung is the bottom rung: the preloaded reader alone.
func (t *tracer) nextRung(o *outcome, pre *trace.Preloaded) span {
	sp, _ := t.measure("trace.next", "", pre.Len(), func() error {
		r := pre.NewReader()
		for rec, ok := r.Next(); ok; rec, ok = r.Next() {
			sink += rec.Extent.Count
		}
		return nil
	})
	o.Metrics["trace.next_ns_per_op"] = sp.nsPerOp()
	return sp
}

// obsvSnap is the part of smrd's /metrics snapshot the cross-check reads.
type obsvSnap struct {
	Ops          int64
	MapSize      int64
	JournalFsync struct{ Total int64 }
}

func scrapeAll(addr string, vols []string) (map[string]obsvSnap, error) {
	out := make(map[string]obsvSnap, len(vols))
	for _, v := range vols {
		resp, err := http.Get("http://" + addr + "/metrics?volume=" + v)
		if err != nil {
			return nil, fmt.Errorf("scrape /metrics: %w", err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		var s obsvSnap
		if err := json.Unmarshal(body, &s); err != nil {
			return nil, fmt.Errorf("scrape /metrics?volume=%s: %w: %s", v, err, body)
		}
		out[v] = s
	}
	return out, nil
}

// coreRungs replays recs through the in-process stack below the service:
// the reader, the extent map, the translation layer, then core.Step with
// one mechanism more per rung up to full. passes is 2 when the workload
// measures an aged volume. It returns the simulator of the top rung so
// the caller can check it against the served volume.
func (t *tracer) coreRungs(o *outcome, pre *trace.Preloaded, full smrseek.Config, passes int) (fresh, aged []rung, top *smrseek.Simulator, err error) {
	recs := pre.Records()
	n := len(recs)
	sp := t.nextRung(o, pre)
	fresh = append(fresh, rung{"trace.next", sp.nsPerOp()})

	m := extmap.NewCoalesced()
	frontier := full.FrontierStart
	sp, _ = t.measure("extmap", "trace.next", n, func() error {
		for _, r := range recs {
			if r.Kind == smrseek.Write {
				m.InsertFunc(r.Extent, frontier, nil)
				frontier += geom.Sector(r.Extent.Count)
			} else {
				m.LookupFunc(r.Extent, func(extmap.Resolved) bool { sink++; return true })
			}
		}
		return nil
	})
	fresh = append(fresh, rung{"extmap", sp.nsPerOp()})
	o.Metrics["extmap.ns_per_op"] = sp.nsPerOp() - fresh[0].NsPerOp
	o.Metrics["extmap.allocs_per_op"] = sp.allocsPerOp()
	o.Metrics["extmap.entries"] = float64(m.Len())

	ls := stl.NewLS(full.FrontierStart)
	var buf []stl.Fragment
	var reads, frags int64
	sp, _ = t.measure("stl", "extmap", n, func() error {
		for _, r := range recs {
			if r.Kind == smrseek.Write {
				buf = ls.WriteAppend(buf[:0], r.Extent)
			} else {
				buf = ls.ResolveAppend(buf[:0], r.Extent)
				reads++
				frags += int64(len(buf))
			}
		}
		return nil
	})
	fresh = append(fresh, rung{"stl", sp.nsPerOp()})
	o.Metrics["stl.frags_per_read"] = float64(frags) / float64(max(reads, 1))

	// core.Step, one mechanism added per rung. Rungs above the
	// workload's own configuration are skipped and report 0.
	steps := []struct {
		name string
		cfg  smrseek.Config
		on   bool
	}{
		{"core.ls", lsConfig(int64(full.FrontierStart), false, false, false), true},
		{"core.defrag", lsConfig(int64(full.FrontierStart), true, false, false), full.Defrag != nil},
		{"core.prefetch", lsConfig(int64(full.FrontierStart), true, true, false), full.Prefetch != nil},
		{"core.cache", lsConfig(int64(full.FrontierStart), true, true, true), full.Cache != nil},
	}
	aged = append(aged, fresh...) // the layers below core.Step hold no state across passes
	below := "stl"
	for _, st := range steps {
		if !st.on {
			continue
		}
		sim, err := smrseek.NewSimulator(st.cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		replay := func() error {
			for _, r := range recs {
				sim.Step(r)
			}
			return nil
		}
		sp, _ := t.measure(st.name, below, n, replay)
		fresh = append(fresh, rung{st.name, sp.nsPerOp()})
		allocs := sp.allocsPerOp()
		if passes > 1 {
			sp, _ = t.measure(st.name+".aged", below, n, replay)
			aged = append(aged, rung{st.name, sp.nsPerOp()})
			allocs = sp.allocsPerOp()
		}
		o.Metrics["core.all.allocs_per_op"] = allocs
		below, top = st.name, sim
	}
	for name, v := range selfTimes(fresh) {
		if name != "trace.next" && name != "extmap" {
			o.Metrics[name+".self_ns_per_op"] = v
		}
	}
	if passes > 1 {
		for name, v := range selfTimes(aged) {
			if name != "trace.next" && name != "extmap" && name != "stl" {
				o.Metrics[name+".self_ns_per_op.aged"] = v
			}
		}
	}
	return fresh, aged, top, nil
}

// mechCounts reports the exact mechanism and seek counts of a run.
func mechCounts(o *outcome, st smrseek.Stats) {
	ops := float64(st.Reads + st.Writes)
	if lookups := st.CacheHits + st.CacheMisses; lookups > 0 {
		o.Metrics["core.cache.hit_ratio"] = float64(st.CacheHits) / float64(lookups)
	}
	if st.Reads > 0 {
		o.Metrics["core.prefetch.hits_per_read"] = float64(st.PrefetchHits) / float64(st.Reads)
	}
	o.Metrics["core.defrag.sectors_per_op"] = float64(st.DefragSectors) / ops
	o.Metrics["disk.read_seeks"] = float64(st.Disk.ReadSeeks)
	o.Metrics["disk.write_seeks"] = float64(st.Disk.WriteSeeks)
}

// volumeRung replays recs through streams volume actors at once,
// in-process, each with at most window requests queued — the closed
// loops of the loader without the wire.
func volumeRung(cfg smrseek.Config, recs []trace.Record, window, streams int) (int64, error) {
	var (
		wg   sync.WaitGroup
		shed atomic.Int64
		errs = make([]error, streams)
	)
	for i := 0; i < streams; i++ {
		v, err := volume.Open(volume.Config{Name: fmt.Sprintf("v%d", i), Sim: cfg})
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n, err := driveVolume(v, recs, window)
			shed.Add(n)
			if cerr := v.Close(); err == nil {
				err = cerr
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	return shed.Load(), errors.Join(errs...)
}

func driveVolume(v *volume.Volume, recs []trace.Record, window int) (shed int64, err error) {
	done := make(chan volume.Result, window)
	inflight, next := 0, 0
	for next < len(recs) || inflight > 0 {
		for inflight < window && next < len(recs) {
			kind := volume.OpRead
			if recs[next].Kind == smrseek.Write {
				kind = volume.OpWrite
			}
			if err := v.TryDo(volume.Request{Kind: kind, Extent: recs[next].Extent}, done); errors.Is(err, volume.ErrOverloaded) {
				shed++
				break
			} else if err != nil {
				return shed, err
			}
			next++
			inflight++
		}
		if res := <-done; res.Err != nil {
			return shed, res.Err
		}
		inflight--
	}
	return shed, nil
}

// serverRung replays recs over loopback to a server running inside this
// process, one connection per volume as the workload does: the same
// framing, connection handlers and actor hand-off as smrd, without a
// second process.
func serverRung(cfg smrseek.Config, recs []trace.Record, window, streams int) error {
	var (
		cfgs []volume.Config
		vols []string
	)
	for i := 0; i < streams; i++ {
		vols = append(vols, fmt.Sprintf("v%d", i))
		cfgs = append(cfgs, volume.Config{Name: vols[i], Sim: cfg})
	}
	mgr, err := volume.OpenAll(cfgs...)
	if err != nil {
		return err
	}
	defer mgr.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := server.New(mgr, ln, server.Options{Logf: func(string, ...any) {}})
	defer srv.Close()
	st, _, err := replayAll(srv.Addr().String(), vols, recs, window, new(atomic.Int64))
	if err != nil {
		return err
	}
	if m := merge(st); m.Failed != 0 {
		return fmt.Errorf("in-process server: %d of %d records failed", m.Failed, m.Attempted)
	}
	return nil
}

// journalRung replays recs through core.Step on plain LS with a
// write-ahead journal attached, checkpointing from here every
// checkpointEvery appends the way smrd's default does, each checkpoint
// timed on its own.
func (t *tracer) journalRung(o *outcome, dir string, cfg smrseek.Config, recs []trace.Record) (span, error) {
	const checkpointEvery = 4096
	lg, err := journal.Open(dir, cfg.FrontierStart)
	if err != nil {
		return span{}, err
	}
	defer lg.Close()
	cfg.Journal = &smrseek.JournalConfig{Log: lg}
	sim, err := smrseek.NewSimulator(cfg)
	if err != nil {
		return span{}, err
	}
	var ckptNs []int64
	sp, err := t.measure("journal", "core.ls", len(recs), func() error {
		for _, r := range recs {
			sim.Step(r)
			if lg.SinceCheckpoint() >= checkpointEvery {
				start := time.Now()
				if err := lg.Checkpoint(sim.LS().Snapshot()); err != nil {
					return err
				}
				ckptNs = append(ckptNs, int64(time.Since(start)))
			}
		}
		return sim.JournalErr()
	})
	if err != nil {
		return sp, err
	}
	o.Metrics["journal.checkpoints"] = float64(len(ckptNs))
	o.Samples["journal.checkpoint_ms_p50"] = len(ckptNs)
	o.Metrics["journal.checkpoint_ms_p50"] = float64(percentile(ckptNs, 50)) / 1e6
	o.Metrics["journal.checkpoint_ms_max"] = float64(percentile(ckptNs, 100)) / 1e6
	if fi, err := os.Stat(journal.CheckpointPath(dir)); err == nil {
		o.Metrics["journal.ckpt_bytes"] = float64(fi.Size())
	}
	return sp, nil
}

// traceServed is the traced run of a workload served by smrd. run and
// used are the untraced child that just finished; full is the volume's
// configuration and passes how often the records were replayed into it.
func (b *bench) traceServed(o *outcome, name string, s served, pre *trace.Preloaded, run *servedRun, used usage, full smrseek.Config, passes int) error {
	t := &tracer{epoch: time.Now()}
	recs := pre.Records()
	ok := float64(len(run.load.LatNs))
	streams := len(s.vols)
	// The top rung: wall time per record of the real run, all
	// connections together, at the median slice like ops_per_s.
	rate, _, _ := sliceMedians(run.marks, 0)
	e2e := 1e9 / rate

	t.genRung(o, b, name, len(recs))

	// A second child with the observability endpoint on, scraped around
	// a replay of the first quarter of the records, against the untraced
	// child over the same quarter.
	traced := s
	traced.metrics = true
	n := len(recs) / traceShare
	tc, err := b.start(traced, pre)
	if err != nil {
		return fmt.Errorf("traced child: %w", err)
	}
	trun, err := b.measure(traced, tc, recs[:n])
	if err != nil {
		return fmt.Errorf("traced child: %w", err)
	}
	tc.stop(syscall.SIGKILL)
	tracedRate, _, _ := sliceMedians(trun.marks, 0)
	untracedRate, _, _ := sliceMedians(run.marks, int64(n*len(s.vols)))
	o.Metrics["trace.overhead_frac"] = untracedRate/tracedRate - 1
	for _, v := range s.vols {
		if got := trun.after[v].Ops - trun.before[v].Ops; got != int64(n) {
			return fmt.Errorf("volume %s: /metrics counted %d ops across a window of %d records", v, got, n)
		}
		o.Metrics["obsv.metrics_ops"] += float64(trun.after[v].Ops - trun.before[v].Ops)
		o.Metrics["obsv.map_size"] += float64(trun.after[v].MapSize)
		o.Metrics["obsv.fsync_count"] += float64(trun.after[v].JournalFsync.Total)
	}

	fresh, aged, top, err := t.coreRungs(o, pre, full, passes)
	if err != nil {
		return err
	}
	if passes > 1 {
		// The top rung replayed what the volume replayed: it is the
		// reference the untraced run checks the served Stat against.
		if err := sameStats("volume "+s.vols[0], run.stats[s.vols[0]], top.Stats()); err != nil {
			return err
		}
	}
	mechCounts(o, run.stats[s.vols[0]])
	ladder := fresh
	if passes > 1 {
		ladder = aged
	}
	inProc := ladder[len(ladder)-1].NsPerOp
	coreSelf := inProc - ladder[2].NsPerOp // everything core.Step adds above the translation layer

	plain := lsConfig(int64(full.FrontierStart), false, false, false)
	plainNs := fresh[3].NsPerOp // the core.ls rung
	if s.journaled {
		dir, err := os.MkdirTemp(b.workDir, "ladder-journal-")
		if err != nil {
			return err
		}
		sp, err := t.journalRung(o, dir, plain, recs)
		if err != nil {
			return err
		}
		o.Metrics["journal.append_self_ns_per_op"] = sp.nsPerOp() - plainNs
		inProc += sp.nsPerOp() - plainNs
	}

	// The service rungs run on plain LS, where their own cost is not
	// buried under a mechanism's, over a bounded prefix, with as many
	// parallel streams as the workload has connections. Their time per
	// record is wall time over all streams' records, like the top rung.
	svc := recs[:min(len(recs), rungCap/streams)]
	base, _ := t.measure("core.ls.service-prefix", "stl", len(svc), func() error {
		_, err := reference(plain, svc, 1)
		return err
	})
	suffix := fmt.Sprintf(".w%d", s.window)
	var shed int64
	vsp, err := t.measure("volume"+suffix, "core.ls", len(svc)*streams, func() (err error) {
		shed, err = volumeRung(plain, svc, s.window, streams)
		return err
	})
	if err != nil {
		return err
	}
	ssp, err := t.measure("server"+suffix, "volume"+suffix, len(svc)*streams, func() error {
		return serverRung(plain, svc, s.window, streams)
	})
	if err != nil {
		return err
	}
	volSelf := vsp.nsPerOp() - base.nsPerOp()
	srvSelf := ssp.nsPerOp() - vsp.nsPerOp()
	o.Metrics["volume.self_ns_per_op"+suffix] = volSelf
	o.Metrics["volume.shed"] = float64(shed)
	o.Metrics["server.self_ns_per_op"+suffix] = srvSelf
	o.Metrics["server.allocs_per_op"] = ssp.allocsPerOp()
	inProc += volSelf + srvSelf

	o.Metrics["proc.exec_self_ns_per_op"] = e2e - inProc
	o.Metrics["ladder.e2e_ns_per_op"] = e2e
	o.Metrics["ladder.core_share"] = coreSelf / e2e
	o.Metrics["ladder.service_share"] = (volSelf + srvSelf + e2e - inProc) / e2e

	o.Metrics["server.shed_per_op"] = float64(run.load.Sheds) / ok
	o.Metrics["server.timeouts"] = float64(run.load.Timeouts)
	o.Metrics["client.retries_per_op"] = float64(run.load.Sheds) / ok
	o.Metrics["proc.smrd_user_s"] = used.UserS
	o.Metrics["proc.smrd_sys_s"] = used.SysS
	o.Metrics["proc.loader_cpu_frac"] = run.loaderS / run.wall.Seconds()
	o.Metrics["fail_frac"] = float64(o.Failed) / float64(o.Attempted)
	o.Spans = t.spans
	return nil
}

// traceCrashRecover is the traced run of crash-recover: the recovery
// path's stages timed one by one on the killed directory, and two more
// restarts with the observability endpoint on. (A restarted volume's
// /metrics gauges stay 0 until its 1024th op, so there is nothing to
// scrape.)
func (b *bench) traceCrashRecover(o *outcome, pre *trace.Preloaded, volDir string, latNs []int64, cpuUs []float64, appends, walBytes int64) error {
	t := &tracer{epoch: time.Now()}
	t.genRung(o, b, "crash-recover", pre.Len())

	untraced := float64(percentile(latNs, 50)) / 1e9
	o.Metrics["recover_s"] = untraced
	o.Samples["recover_s"] = len(latNs)

	mb := float64(walBytes) / (1 << 20)
	stage := func(name, parent string, fn func() error) (float64, error) {
		sp, err := t.measure(name, parent, int(appends), fn)
		return sp.seconds(), err
	}
	recoverWith := func(workers int) func() error {
		return func() error {
			_, _, err := stl.RecoverDirWith(volDir, stl.RecoverOptions{VerifyOnRecover: true, Workers: workers})
			return err
		}
	}
	w1, err := stage("journal.recover.w1", "", recoverWith(1))
	if err != nil {
		return err
	}
	wn, err := stage("journal.recover.wN", "", recoverWith(runtime.GOMAXPROCS(0)))
	if err != nil {
		return err
	}
	ver, err := stage("journal.verify", "journal.recover.wN", func() error { _, err := journal.VerifyDir(volDir); return err })
	if err != nil {
		return err
	}
	snap, data, err := journal.LoadDirWorkers(volDir, 1)
	if err != nil {
		return err
	}
	apply, err := stage("stl.recover_apply", "journal.recover.wN", func() error { _, _, err := stl.Recover(snap, data); return err })
	if err != nil {
		return err
	}
	o.Metrics["journal.scan_w1_mb_per_s"] = mb / w1
	o.Metrics["journal.scan_wN_mb_per_s"] = mb / wn
	o.Metrics["journal.verify_mb_per_s"] = mb / ver
	o.Metrics["stl.recover_apply_ms"] = apply * 1e3

	var tracedS []float64
	for i := 0; i < 2; i++ {
		dir := filepath.Join(b.workDir, fmt.Sprintf("traced-restart-%d", i))
		if err := copyDir(volDir, filepath.Join(dir, "a")); err != nil {
			return err
		}
		c, took, err := b.restart(dir, int64(pre.MaxLBA()), "-checkpoint-every", "0", "-metrics-addr", "127.0.0.1:0")
		if err != nil {
			return err
		}
		c.stop(syscall.SIGKILL)
		tracedS = append(tracedS, took.Seconds())
	}
	o.Metrics["trace.overhead_frac"] = median(tracedS)/untraced - 1

	// The ladder of a restart: exec-to-Stat is the top rung, the
	// in-process verified recovery at the daemon's default worker count
	// the rung below it.
	e2e := untraced * 1e9 / float64(appends)
	o.Metrics["ladder.e2e_ns_per_op"] = e2e
	o.Metrics["proc.exec_self_ns_per_op"] = e2e - wn*1e9/float64(appends)
	o.Metrics["ladder.core_share"] = apply * 1e9 / float64(appends) / e2e
	o.Metrics["ladder.service_share"] = o.Metrics["proc.exec_self_ns_per_op"] / e2e
	o.Metrics["proc.smrd_user_s"] = median(cpuUs) * float64(appends) / 1e6 // user+sys of the median restart
	o.Spans = t.spans
	return nil
}

// traceBandClean is the traced run of band-clean: the same records on
// the untranslated infinite disk below, the banded device above, and a
// quarter replayed with smrd's own collector attached as the probe.
func (b *bench) traceBandClean(o *outcome, pre *trace.Preloaded, e2e float64, st smrseek.Stats) error {
	t := &tracer{epoch: time.Now()}
	recs := pre.Records()
	n := len(recs)
	t.genRung(o, b, "band-clean", n)

	t.nextRung(o, pre)
	nols, err := t.measure("core.nols", "trace.next", n, func() error { _, err := reference(smrseek.Config{}, recs, 1); return err })
	if err != nil {
		return err
	}
	banded := func(count int, probes ...smrseek.Probe) func() error {
		return func() error {
			dev, err := bandDevice()
			if err != nil {
				return err
			}
			sim, err := smrseek.NewSimulator(smrseek.Config{Device: dev}, probes...)
			if err != nil {
				return err
			}
			for _, r := range recs[:count] {
				sim.Step(r)
			}
			return nil
		}
	}
	band, err := t.measure("band", "core.nols", n, banded(n))
	if err != nil {
		return err
	}
	quarter, err := t.measure("band.quarter", "core.nols", n/traceShare, banded(n/traceShare))
	if err != nil {
		return err
	}
	probed, err := t.measure("band.quarter.probed", "core.nols", n/traceShare, banded(n/traceShare, obsv.NewCollector()))
	if err != nil {
		return err
	}
	o.Metrics["trace.overhead_frac"] = probed.nsPerOp()/quarter.nsPerOp() - 1
	o.Metrics["band.self_ns_per_op"] = band.nsPerOp() - nols.nsPerOp()
	o.Metrics["band.allocs_per_op"] = band.allocsPerOp()
	cl := st.Cleaning
	o.Metrics["band.clean_runs"] = float64(cl.CleanRuns)
	o.Metrics["band.bands_cleaned"] = float64(cl.BandsCleaned)
	o.Metrics["band.stalls"] = float64(cl.Stalls)
	o.Metrics["band.stalled_sectors"] = float64(cl.StallSectors)
	o.Metrics["band.clean_sectors_per_host_sector"] = float64(cl.CleanWriteSectors) / float64(cl.HostWriteSectors)
	o.Metrics["disk.read_seeks"] = float64(st.Disk.ReadSeeks)
	o.Metrics["disk.write_seeks"] = float64(st.Disk.WriteSeeks)
	o.Metrics["ladder.e2e_ns_per_op"] = e2e
	o.Metrics["ladder.core_share"] = nols.nsPerOp() / e2e
	o.Spans = t.spans
	return nil
}
