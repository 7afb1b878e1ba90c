package core

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
)

// crashWorkload builds a deterministic read/write mix that exercises
// every journaled path: host writes, fragmented reads (which trigger
// defrag relocations, prefetch fills and cache inserts), and rewrites.
func crashWorkload(seed int64, n int) []trace.Record {
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

// crashVariants are the mechanism combinations the acceptance matrix
// covers. Defrag is the interesting one — relocations journal through a
// different path than host writes.
func crashVariants() map[string]func(*Config) {
	return map[string]func(*Config){
		"LS":          func(c *Config) {},
		"LS+defrag":   func(c *Config) { d := DefaultDefragConfig(); c.Defrag = &d },
		"LS+prefetch": func(c *Config) { p := DefaultPrefetchConfig(); c.Prefetch = &p },
		"LS+cache":    func(c *Config) { c.Cache = &CacheConfig{CapacityBytes: 1 << 20} },
	}
}

// assertRecoveredMatchesLive is the matrix's core assertion: the
// recovered layer is bit-identical to the live one.
func assertRecoveredMatchesLive(t *testing.T, live, rec *stl.LS) {
	t.Helper()
	if diff := live.Map().Diff(rec.Map()); diff != "" {
		t.Errorf("extent map diverges: %s", diff)
	}
	if live.Frontier() != rec.Frontier() {
		t.Errorf("frontier: live %d, recovered %d", live.Frontier(), rec.Frontier())
	}
	if live.LogSectors() != rec.LogSectors() {
		t.Errorf("log sectors: live %d, recovered %d", live.LogSectors(), rec.LogSectors())
	}
	if err := rec.Map().CheckInvariants(); err != nil {
		t.Errorf("recovered map invariants: %v", err)
	}
	if err := live.Map().CheckInvariants(); err != nil {
		t.Errorf("live map invariants: %v", err)
	}
}

func TestCrashRecoveryMatrix(t *testing.T) {
	const trailingFrame = 20 // torn bytes for the mid-record crash cases
	recs := crashWorkload(42, 600)
	frontier := FrontierFor(recs)
	for name, apply := range crashVariants() {
		// A crash-free run establishes how many appends the variant
		// produces, so the crash points can cover the whole range.
		probe := func() int64 {
			dir := t.TempDir()
			log, err := journal.Open(dir, frontier)
			if err != nil {
				t.Fatal(err)
			}
			defer log.Close()
			cfg := Config{LogStructured: true, FrontierStart: frontier,
				Journal: &JournalConfig{Log: log, CheckpointEvery: 64}}
			apply(&cfg)
			sim, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run(trace.NewSliceReader(recs))
			if err != nil {
				t.Fatal(err)
			}
			// Even without a crash, the on-disk pair must reproduce the
			// final state.
			recovered, _, err := stl.RecoverDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			assertRecoveredMatchesLive(t, sim.LS(), recovered)
			if st.Durability.JournalAppends == 0 || st.Durability.Checkpoints == 0 {
				t.Fatalf("%s: appends=%d checkpoints=%d, journaling inert",
					name, st.Durability.JournalAppends, st.Durability.Checkpoints)
			}
			return st.Durability.JournalAppends
		}
		total := probe()

		crashPoints := []struct {
			after int64
			torn  int
		}{
			{1, 0},             // first append, clean cut
			{1, trailingFrame}, // first append, torn
			{2, trailingFrame}, // right after the first mutation
			{total / 2, 0},     // mid-run, clean (lands between checkpoints)
			{total / 2, trailingFrame},
			{total, trailingFrame}, // torn FINAL record
		}
		for _, cp := range crashPoints {
			dir := t.TempDir()
			log, err := journal.Open(dir, frontier)
			if err != nil {
				t.Fatal(err)
			}
			log.CrashAfter(cp.after, cp.torn)
			cfg := Config{LogStructured: true, FrontierStart: frontier,
				Journal: &JournalConfig{Log: log, CheckpointEvery: 64}}
			apply(&cfg)
			sim, err := NewSimulator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st, err := sim.Run(trace.NewSliceReader(recs))
			if !errors.Is(err, journal.ErrCrashed) {
				t.Fatalf("%s crash@%d torn=%d: err = %v, want ErrCrashed",
					name, cp.after, cp.torn, err)
			}
			if !st.Durability.Crashed {
				t.Errorf("%s crash@%d: Durability.Crashed not set", name, cp.after)
			}
			if got := st.Durability.JournalAppends; got != cp.after-1 {
				t.Errorf("%s crash@%d: %d acknowledged appends, want %d",
					name, cp.after, got, cp.after-1)
			}
			log.Close()

			recovered, rst, err := stl.RecoverDir(dir)
			if err != nil {
				t.Fatalf("%s crash@%d torn=%d: recovery failed: %v",
					name, cp.after, cp.torn, err)
			}
			if wantTorn := cp.torn > 0; rst.TornTail != wantTorn {
				t.Errorf("%s crash@%d torn=%d: TornTail=%v, want %v",
					name, cp.after, cp.torn, rst.TornTail, wantTorn)
			}
			assertRecoveredMatchesLive(t, sim.LS(), recovered)
		}
	}
}

// TestCrashRecoveryResume recovers from a crash and finishes the
// workload on the recovered layer (passed back in as the custom layer,
// journaling re-enabled), then recovers AGAIN — the full power-loss
// lifecycle a real drive goes through.
func TestCrashRecoveryResume(t *testing.T) {
	recs := crashWorkload(7, 400)
	frontier := FrontierFor(recs)
	dir := t.TempDir()
	log, err := journal.Open(dir, frontier)
	if err != nil {
		t.Fatal(err)
	}
	log.CrashAfter(90, 11)
	cfg := Config{LogStructured: true, FrontierStart: frontier,
		Journal: &JournalConfig{Log: log, CheckpointEvery: 32}}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(trace.NewSliceReader(recs)); !errors.Is(err, journal.ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	log.Close()

	// Restart through the one resume path: recover the crashed
	// directory, checkpoint the recovered state, rebirth the torn journal.
	log2, recovered, _, err := stl.OpenDir(dir, frontier)
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	assertRecoveredMatchesLive(t, sim.LS(), recovered)
	cfg2 := Config{CustomLayer: recovered,
		Journal: &JournalConfig{Log: log2, CheckpointEvery: 32}}
	sim2, err := NewSimulator(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if sim2.LS() != recovered {
		t.Fatal("recovered LS not re-adopted as the built-in layer")
	}
	if _, err := sim2.Run(trace.NewSliceReader(recs[90:])); err != nil {
		t.Fatal(err)
	}
	again, _, err := stl.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertRecoveredMatchesLive(t, sim2.LS(), again)
}

// errJournalDevice is the plain (non-crash) append failure the tests
// below inject through journal.Failer.
var errJournalDevice = errors.New("journal device failed")

// TestCheckpointWhileFaulting fails one append after checkpoints have
// been written: the failure stops the run with the op unapplied, and
// the on-disk checkpoint/journal pair recovers to exactly the live
// state.
func TestCheckpointWhileFaulting(t *testing.T) {
	const failAt = 100 // append sequence number that fails
	recs := crashWorkload(13, 500)
	frontier := FrontierFor(recs)
	dir := t.TempDir()
	log, err := journal.Open(dir, frontier)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	log.SetFailer(func(seq int64, rec journal.Record) error {
		if seq == failAt {
			return errJournalDevice
		}
		return nil
	})
	cfg := Config{LogStructured: true, FrontierStart: frontier,
		Journal: &JournalConfig{Log: log, CheckpointEvery: 40}}
	sim, err := NewSimulator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sim.Run(trace.NewSliceReader(recs))
	if !errors.Is(err, errJournalDevice) || !errors.Is(sim.JournalErr(), errJournalDevice) {
		t.Fatalf("Run = %v, JournalErr = %v; want the failer's error", err, sim.JournalErr())
	}
	if st.Durability.Checkpoints == 0 {
		t.Error("no checkpoint before the failed append")
	}
	if st.Durability.AppendFailures != 1 || st.Durability.JournalAppends != failAt-1 {
		t.Errorf("append failures %d, appends %d; want 1 and %d",
			st.Durability.AppendFailures, st.Durability.JournalAppends, failAt-1)
	}
	if st.Durability.Crashed {
		t.Error("a plain append failure reported as a crash")
	}
	recovered, _, err := stl.RecoverDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	assertRecoveredMatchesLive(t, sim.LS(), recovered)
}

// TestAbortedDefragLeavesMapUnchanged fails the journal append of a
// defrag relocation: the extent map must still resolve every LBA to its
// pre-defrag location, and no write-back I/O may have been charged —
// the relocation is journaled before it is played.
func TestAbortedDefragLeavesMapUnchanged(t *testing.T) {
	d := DefaultDefragConfig()
	mk := func(failRelocate bool) *Simulator {
		log, err := journal.Open(t.TempDir(), 1<<16)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { log.Close() })
		if failRelocate {
			log.SetFailer(func(_ int64, rec journal.Record) error {
				if rec.Kind == journal.RecRelocate {
					return errJournalDevice
				}
				return nil
			})
		}
		s := mustSim(t, Config{LogStructured: true, FrontierStart: 1 << 16, Defrag: &d,
			Journal: &JournalConfig{Log: log}})
		// Fragment [0, 16): the middle write moves the frontier away.
		s.Step(wr(0, 8))
		s.Step(wr(1000, 8))
		s.Step(wr(8, 8))
		return s
	}

	// Sanity: with a healthy journal the defragmenting read coalesces
	// the range.
	s := mk(false)
	s.Step(rd(0, 16))
	if got := len(s.layer.ResolveAppend(nil, geom.Ext(0, 16))); got != 1 {
		t.Fatalf("journaled defrag left %d fragments, want 1 — the aborted-defrag check below would be vacuous", got)
	}

	s = mk(true)
	target := geom.Ext(0, 16)
	before := s.layer.ResolveAppend(nil, target)
	if len(before) < 2 {
		t.Fatalf("setup did not fragment the target: %v", before)
	}
	writesBefore := s.Stats().Disk.WriteOps
	s.Step(rd(0, 16)) // triggers defrag; its relocation record is rejected
	after := s.layer.ResolveAppend(nil, target)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("aborted defrag changed the extent map:\nbefore %v\nafter  %v", before, after)
	}
	if !errors.Is(s.JournalErr(), errJournalDevice) {
		t.Errorf("JournalErr = %v, want the failer's error", s.JournalErr())
	}
	st := s.Stats()
	if st.Durability.AppendFailures != 1 {
		t.Errorf("append failures = %d, want 1", st.Durability.AppendFailures)
	}
	if st.DefragWritebacks != 0 {
		t.Errorf("aborted relocation counted as a write-back (%d)", st.DefragWritebacks)
	}
	if st.Disk.WriteOps != writesBefore {
		t.Errorf("aborted relocation charged %d write I/Os", st.Disk.WriteOps-writesBefore)
	}
	// Per-LBA check: every sector of the target still resolves somewhere.
	for lba := int64(0); lba < 16; lba++ {
		if frags := s.layer.ResolveAppend(nil, geom.Ext(lba, 1)); len(frags) != 1 {
			t.Errorf("LBA %d resolves to %d fragments after aborted defrag", lba, len(frags))
		}
	}
}

func TestJournalConfigValidation(t *testing.T) {
	dir := t.TempDir()
	log, err := journal.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cases := []Config{
		{Journal: &JournalConfig{Log: log}},              // NoLS
		{LogStructured: true, Journal: &JournalConfig{}}, // nil Log
		{LogStructured: true, Journal: &JournalConfig{Log: log, CheckpointEvery: -1}},
		{CustomLayer: stl.NewNoLS(), Journal: &JournalConfig{Log: log}}, // non-LS custom layer
	}
	for i, cfg := range cases {
		if _, err := NewSimulator(cfg); err == nil {
			t.Errorf("case %d: invalid journal config accepted", i)
		}
	}
	if got := (Config{LogStructured: true, Journal: &JournalConfig{Log: log}}).Name(); got != "LS+wal" {
		t.Errorf("Name() = %q, want LS+wal", got)
	}
}
