package volume_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
	"smrseek/internal/volume"
	"smrseek/internal/workload"
)

// smallTrace generates a deterministic workload slice for tests.
func smallTrace(t *testing.T, scale float64) []trace.Record {
	t.Helper()
	p, err := workload.ByName("w91")
	if err != nil {
		t.Fatal(err)
	}
	return p.Generate(scale)
}

// do submits one request through TryDo, the server's path, and waits for
// its result.
func do(v *volume.Volume, kind volume.Op, ext geom.Extent) (volume.Result, error) {
	done := make(chan volume.Result, 1)
	if err := v.TryDo(volume.Request{Kind: kind, Extent: ext}, done); err != nil {
		return volume.Result{}, err
	}
	res := <-done
	return res, res.Err
}

// feed plays every record through the volume in order, one at a time.
func feed(t *testing.T, v *volume.Volume, recs []trace.Record) {
	t.Helper()
	for _, rec := range recs {
		kind := volume.OpWrite
		if rec.Kind == disk.Read {
			kind = volume.OpRead
		}
		if _, err := do(v, kind, rec.Extent); err != nil {
			t.Fatalf("%v %v: %v", rec.Kind, rec.Extent, err)
		}
	}
}

// statsEqual compares run statistics modulo Config (the direct run and
// the volume carry different Config values by construction).
func statsEqual(a, b core.Stats) bool {
	a.Config, b.Config = core.Config{}, core.Config{}
	return reflect.DeepEqual(a, b)
}

// TestVolumeDeterminism is the actor-model contract: a volume fed a
// trace in order produces Stats bit-identical to a direct
// single-threaded run of the same trace under the same configuration.
func TestVolumeDeterminism(t *testing.T) {
	recs := smallTrace(t, 0.02)
	d := core.DefaultDefragConfig()
	cc := core.DefaultCacheConfig()
	cfg := core.Config{
		LogStructured: true,
		FrontierStart: core.FrontierFor(recs),
		Defrag:        &d,
		Cache:         &cc,
	}

	direct, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := direct.Run(trace.NewSliceReader(recs))
	if err != nil {
		t.Fatal(err)
	}

	v, err := volume.Open(volume.Config{Name: "det", Sim: cfg})
	if err != nil {
		t.Fatal(err)
	}
	feed(t, v, recs)
	res, err := do(v, volume.OpStat, geom.Extent{})
	if err != nil {
		t.Fatal(err)
	}
	if !statsEqual(*res.Stats, want) {
		t.Errorf("live Stat diverged from direct run:\n got %+v\nwant %+v", *res.Stats, want)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if got := v.Stats(); !statsEqual(got, want) {
		t.Errorf("final Stats diverged from direct run:\n got %+v\nwant %+v", got, want)
	}
}

// TestVolumeReadFrags checks that read responses report the resolved
// fragment count: an LBA range written in two separated passes resolves
// to two physical fragments.
func TestVolumeReadFrags(t *testing.T) {
	v, err := volume.Open(volume.Config{Name: "frags", Sim: core.Config{
		LogStructured: true, FrontierStart: 1 << 20,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	// Two non-adjacent writes land at consecutive log positions; the
	// interleaved write of a different LBA splits them physically.
	for _, ext := range []geom.Extent{geom.Ext(0, 8), geom.Ext(100, 8), geom.Ext(8, 8)} {
		if _, err := do(v, volume.OpWrite, ext); err != nil {
			t.Fatal(err)
		}
	}
	res, err := do(v, volume.OpRead, geom.Ext(0, 16))
	if err != nil {
		t.Fatal(err)
	}
	if res.Frags != 2 {
		t.Errorf("read [0,16) resolved to %d fragments, want 2", res.Frags)
	}
}

// TestVolumeBackpressure pins the admission-control contract: with the
// actor stalled and the queue full, TryDo sheds with ErrOverloaded
// instead of queueing without bound.
func TestVolumeBackpressure(t *testing.T) {
	v, err := volume.Open(volume.Config{
		Name: "bp", Sim: core.Config{LogStructured: true, FrontierStart: 1 << 20},
		QueueDepth: 2, BatchSize: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()

	// Stall the actor deterministically: pre-fill the first request's
	// done channel so the actor blocks delivering its result.
	stall := make(chan volume.Result, 1)
	stall <- volume.Result{}
	if err := v.TryDo(volume.Request{Kind: volume.OpStat}, stall); err != nil {
		t.Fatal(err)
	}

	// Fill the queue, then overflow it.
	done := make(chan volume.Result, 8)
	shed := 0
	for i := 0; i < 8; i++ {
		err := v.TryDo(volume.Request{Kind: volume.OpWrite, Extent: geom.Ext(int64(i)*8, 8)}, done)
		if errors.Is(err, volume.ErrOverloaded) {
			shed++
		} else if err != nil {
			t.Fatalf("TryDo: %v", err)
		}
	}
	if shed < 6 { // queue depth 2 admits at most 2 of the 8
		t.Errorf("shed %d of 8 requests with queue depth 2, want >= 6", shed)
	}

	// Release the actor and confirm the admitted requests complete.
	<-stall
	<-stall
	for i := 0; i < 8-shed; i++ {
		<-done
	}
}

// TestVolumeJournalDurability pins the durability round-trip: a volume
// closed mid-workload checkpoints its state; reopening the directory
// recovers it, and the combined two-session run leaves the exact extent
// map and frontier a single uninterrupted run produces.
func TestVolumeJournalDurability(t *testing.T) {
	recs := smallTrace(t, 0.01)
	writes := make([]trace.Record, 0, len(recs))
	for _, r := range recs {
		if r.Kind == disk.Write {
			writes = append(writes, r)
		}
	}
	if len(writes) < 10 {
		t.Fatalf("workload too small: %d writes", len(writes))
	}
	half := len(writes) / 2
	frontier := core.FrontierFor(recs)

	// Reference: one uninterrupted journal-free run of every write.
	ref := stl.NewLS(frontier)
	for _, r := range writes {
		ref.WriteAppend(nil, r.Extent)
	}

	dir := t.TempDir()
	cfg := volume.Config{
		Name:       "dur",
		Sim:        core.Config{LogStructured: true, FrontierStart: frontier},
		JournalDir: dir, CheckpointEvery: 64,
	}
	v1, err := volume.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v1.Recovery != nil {
		t.Fatal("fresh journal dir reported a recovery")
	}
	feed(t, v1, writes[:half])
	if err := v1.Close(); err != nil {
		t.Fatal(err)
	}

	v2, err := volume.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Recovery == nil || !v2.Recovery.FromCheckpoint {
		t.Fatalf("reopen did not recover from checkpoint: %+v", v2.Recovery)
	}
	feed(t, v2, writes[half:])
	if err := v2.Close(); err != nil {
		t.Fatal(err)
	}

	recovered, _, err := stl.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Frontier() != ref.Frontier() {
		t.Errorf("recovered frontier %d, want %d", recovered.Frontier(), ref.Frontier())
	}
	if d := recovered.Map().Diff(ref.Map()); d != "" {
		t.Errorf("recovered map diverges from uninterrupted run:\n%s", d)
	}
}

// TestGroupCommitMatchesStep: batching changes when journal bytes reach
// the file, never which bytes. The same trace through a pipelined,
// journaled volume (one journal write per actor batch) and through a
// direct simulator (one per Step) leaves byte-identical journal and
// checkpoint files.
func TestGroupCommitMatchesStep(t *testing.T) {
	recs := smallTrace(t, 0.02)
	d := core.DefaultDefragConfig() // defrag relocations journal from reads too
	sim := core.Config{LogStructured: true, FrontierStart: core.FrontierFor(recs), Defrag: &d}
	const ckptEvery, sealEvery = 100, 8

	direct := t.TempDir()
	lg, err := journal.Open(direct, sim.FrontierStart)
	if err != nil {
		t.Fatal(err)
	}
	if err := lg.SetSegmentSize(sealEvery); err != nil {
		t.Fatal(err)
	}
	cfg := sim
	cfg.Journal = &core.JournalConfig{Log: lg, CheckpointEvery: ckptEvery}
	s, err := core.NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		s.Step(r)
	}
	if err := s.JournalErr(); err != nil {
		t.Fatal(err)
	}
	if err := lg.Checkpoint(s.LS().Snapshot()); err != nil {
		t.Fatal(err)
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}

	batched := t.TempDir()
	v, err := volume.Open(volume.Config{
		Name: "gc", Sim: sim, QueueDepth: len(recs),
		JournalDir: batched, CheckpointEvery: ckptEvery, SealEvery: sealEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan volume.Result, len(recs))
	for _, r := range recs {
		kind := volume.OpWrite
		if r.Kind == disk.Read {
			kind = volume.OpRead
		}
		if err := v.TryDo(volume.Request{Kind: kind, Extent: r.Extent}, done); err != nil {
			t.Fatal(err)
		}
	}
	for range recs {
		if r := <-done; r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if st := v.Stats(); st.Durability.Checkpoints == 0 || st.DefragWritebacks == 0 {
		t.Fatalf("trace too small to checkpoint and relocate: %+v", st.Durability)
	}

	for _, name := range []string{journal.JournalFile, journal.CheckpointFile} {
		want, err := os.ReadFile(filepath.Join(direct, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(batched, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: batched volume wrote %d B, per-Step simulator %d B, contents differ", name, len(got), len(want))
		}
	}
}

// TestVolumeRetiredOp: op 4, the retired snapshot op, is no volume
// request kind any more; the actor answers it with an error and keeps
// serving.
func TestVolumeRetiredOp(t *testing.T) {
	v, err := volume.Open(volume.Config{
		Name: "wal", Sim: core.Config{LogStructured: true, FrontierStart: 4096},
		JournalDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if _, err := do(v, volume.Op(4), geom.Extent{}); err == nil {
		t.Error("op 4 was accepted")
	}
	if _, err := do(v, volume.OpWrite, geom.Ext(0, 8)); err != nil {
		t.Errorf("write after op 4: %v", err)
	}
}

// TestVolumeRefusesCorruptJournal: recovery always verifies and refuses
// a volume whose sealed journal was tampered with.
func TestVolumeRefusesCorruptJournal(t *testing.T) {
	dir := t.TempDir()
	cfg := volume.Config{
		Name: "tamper", Sim: core.Config{LogStructured: true, FrontierStart: 4096},
		JournalDir: dir, SealEvery: 2,
	}
	v, err := volume.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 4; i++ {
		if _, err := do(v, volume.OpWrite, geom.Ext(i*8, 8)); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	// Close checkpointed; delete the checkpoint so the checkpoint CRC in
	// the journal header dangles — breaking the pairing without touching
	// a single record.
	if err := os.Remove(journal.CheckpointPath(dir)); err != nil {
		t.Fatal(err)
	}
	if _, err := volume.Open(cfg); !errors.Is(err, journal.ErrCorrupt) {
		t.Fatalf("open over tampered journal dir: %v, want ErrCorrupt", err)
	}
}

func TestVolumeClosed(t *testing.T) {
	v, err := volume.Open(volume.Config{Name: "closed", Sim: core.Config{LogStructured: true, FrontierStart: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Fatal(err)
	}
	if err := v.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	done := make(chan volume.Result, 1)
	if err := v.TryDo(volume.Request{Kind: volume.OpStat}, done); !errors.Is(err, volume.ErrClosed) {
		t.Errorf("TryDo after Close: err = %v, want ErrClosed", err)
	}
}

func TestVolumeUnbufferedDone(t *testing.T) {
	v, err := volume.Open(volume.Config{Name: "unbuf", Sim: core.Config{LogStructured: true, FrontierStart: 4096}})
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	if err := v.TryDo(volume.Request{Kind: volume.OpStat}, make(chan volume.Result)); err == nil {
		t.Error("TryDo with unbuffered done succeeded, want error")
	}
}

func TestVolumeConfigValidation(t *testing.T) {
	cases := []volume.Config{
		{},                          // empty name
		{Name: "x", QueueDepth: -1}, // negative queue
		{Name: "x", BatchSize: -2},  // negative batch
		{Name: "x", CheckpointEvery: -1},
		{Name: "x", JournalDir: "/tmp/j"}, // journal without LS
		{Name: "x", Sim: core.Config{LogStructured: true, Journal: &core.JournalConfig{}}},
	}
	for i, cfg := range cases {
		if _, err := volume.Open(cfg); err == nil {
			t.Errorf("case %d: Open(%+v) succeeded, want error", i, cfg)
		}
	}
}

// TestConcurrentVolumes runs many volumes at once, each fed from its
// own goroutine while a scraper polls Stat from outside — the first
// multi-simulator concurrency path in the repo; the -race CI job keeps
// it honest.
func TestConcurrentVolumes(t *testing.T) {
	recs := smallTrace(t, 0.01)
	const n = 6
	cfgs := make([]volume.Config, n)
	for i := range cfgs {
		cfgs[i] = volume.Config{
			Name: string(rune('a' + i)),
			Sim:  core.Config{LogStructured: true, FrontierStart: core.FrontierFor(recs)},
		}
	}
	m, err := volume.OpenAll(cfgs...)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for _, name := range m.Names() {
		v, _ := m.Get(name)
		wg.Add(1)
		go func(v *volume.Volume) {
			defer wg.Done()
			feed(t, v, recs)
		}(v)
	}
	// Concurrent scrapers: live Stat requests and collector snapshots.
	stop := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, name := range m.Names() {
				v, _ := m.Get(name)
				if _, err := do(v, volume.OpStat, geom.Extent{}); err != nil && !errors.Is(err, volume.ErrClosed) {
					t.Error(err)
					return
				}
				v.Collector().Snapshot()
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrape.Wait()

	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// Every volume executed the same trace: identical op counts.
	for _, name := range m.Names() {
		v, _ := m.Get(name)
		st := v.Stats()
		if st.Reads+st.Writes != int64(len(recs)) {
			t.Errorf("volume %s: %d ops, want %d", name, st.Reads+st.Writes, len(recs))
		}
	}
}

// TestOpenAllRecoversConcurrently opens many journaled volumes at once:
// OpenAll recovers them on concurrent goroutines, but the result must be
// indistinguishable from sequential opens — names in config order, every
// volume recovered, and on damage the first error in config order, not
// whichever open lost the race.
func TestOpenAllRecoversConcurrently(t *testing.T) {
	const n = 8
	frontier := geom.Sector(4096)
	// seed journals six writes into a fresh dir — no checkpoint, so the
	// opens below replay (and verify) three sealed segments each.
	seed := func(dir string) {
		t.Helper()
		log, err := journal.Open(dir, frontier)
		if err != nil {
			t.Fatal(err)
		}
		if err := log.SetSegmentSize(2); err != nil {
			t.Fatal(err)
		}
		for j := int64(0); j < 6; j++ {
			if err := log.Append(journal.Record{
				Kind: journal.RecWrite, Lba: geom.Ext(j*8, 8), Pba: frontier + geom.Sector(j*8),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
	}
	cfgs := make([]volume.Config, n)
	for i := range cfgs {
		dir := t.TempDir()
		cfgs[i] = volume.Config{
			Name:       string(rune('a' + i)),
			Sim:        core.Config{LogStructured: true, FrontierStart: frontier},
			JournalDir: dir, SealEvery: 2,
		}
		seed(dir)
	}

	m, err := volume.OpenAll(cfgs...)
	if err != nil {
		t.Fatal(err)
	}
	names := m.Names()
	for i, name := range names {
		if want := cfgs[i].Name; name != want {
			t.Errorf("Names()[%d] = %q, want %q (config order)", i, name, want)
		}
		v, _ := m.Get(name)
		if v.Recovery == nil || !v.Recovery.Verified || v.Recovery.Replayed != 6 || v.Recovery.SealedSegments != 3 {
			t.Errorf("volume %s recovery stats: %+v, want 6 replayed over 3 verified segments", name, v.Recovery)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	// Damage volumes c and f (indices 2 and 5) with a byte flip inside a
	// sealed record (reseeding first: Close above checkpoint-rotated the
	// journals): both opens fail concurrently, and OpenAll must report
	// c — first in config order — every time.
	for _, i := range []int{2, 5} {
		dir := t.TempDir()
		cfgs[i].JournalDir = dir
		seed(dir)
		path := journal.JournalPath(dir)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw[70] ^= 0x01
		if err := os.WriteFile(path, raw, 0o666); err != nil {
			t.Fatal(err)
		}
	}
	for run := 0; run < 5; run++ {
		_, err := volume.OpenAll(cfgs...)
		if err == nil || !errors.Is(err, journal.ErrCorrupt) {
			t.Fatalf("run %d: OpenAll over damaged dirs: %v, want ErrCorrupt", run, err)
		}
		if got := err.Error(); len(got) < 8 || got[:8] != "volume c" {
			t.Fatalf("run %d: first error is %q, want volume c's (config order)", run, got)
		}
	}
}

func TestManagerDuplicateName(t *testing.T) {
	cfg := core.Config{LogStructured: true, FrontierStart: 4096}
	if _, err := volume.OpenAll(
		volume.Config{Name: "dup", Sim: cfg},
		volume.Config{Name: "dup", Sim: cfg},
	); err == nil {
		t.Fatal("duplicate names accepted")
	}
}

func TestManagerRegistry(t *testing.T) {
	cfg := core.Config{LogStructured: true, FrontierStart: 4096}
	m, err := volume.OpenAll(
		volume.Config{Name: "r0", Sim: cfg},
		volume.Config{Name: "r1", Sim: cfg},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	names := m.Registry().Names()
	if len(names) != 2 || names[0] != "r0" || names[1] != "r1" {
		t.Errorf("registry names = %v, want [r0 r1]", names)
	}
	if _, ok := m.Registry().Get("r1"); !ok {
		t.Error("registry missing r1")
	}
	if _, ok := m.Get("r2"); ok {
		t.Error("Get(r2) found a volume")
	}
}
