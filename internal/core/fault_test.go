package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"smrseek/internal/fault"
	"smrseek/internal/geom"
	"smrseek/internal/report"
	"smrseek/internal/trace"
)

// faultTrace builds a deterministic read/write mix that fragments the
// extent map: interleaved writes scatter neighbouring LBA ranges across
// the log, and re-reads of the scattered ranges exercise every recovery
// path.
func faultTrace(n int) []trace.Record {
	recs := make([]trace.Record, 0, n)
	state := uint64(0x1234)
	next := func(mod int64) int64 {
		state = state*6364136223846793005 + 1442695040888963407
		return int64(state>>33) % mod
	}
	for i := 0; i < n; i++ {
		lba := next(1 << 14)
		if i%3 == 2 {
			recs = append(recs, rd(lba, 8+next(32)))
		} else {
			recs = append(recs, wr(lba, 8+next(16)))
		}
	}
	return recs
}

func TestFaultedRunReproducible(t *testing.T) {
	d := DefaultDefragConfig()
	c := DefaultCacheConfig()
	cfg := Config{
		LogStructured: true,
		FrontierStart: 1 << 20,
		Defrag:        &d,
		Cache:         &c,
		Fault: &fault.Config{
			Seed:        42,
			ReadRate:    0.05,
			WriteRate:   0.05,
			PoisonRate:  0.10,
			MediaRanges: []geom.Extent{geom.Ext(1<<20+500, 64)},
		},
	}
	recs := faultTrace(4000)

	one := run(t, cfg, recs)
	two := run(t, cfg, recs)
	if !reflect.DeepEqual(one, two) {
		t.Fatalf("faulted runs with the same seed diverged:\n%+v\n%+v", one, two)
	}
	if one.Resilience.FaultsInjected == 0 {
		t.Fatal("no faults injected; the reproducibility check is vacuous")
	}
	if one.Resilience.Recoveries == 0 {
		t.Error("expected some recoveries at 5% transient rates with retries")
	}

	var b1, b2 bytes.Buffer
	if err := report.ResilienceTable(one.Resilience).Render(&b1); err != nil {
		t.Fatal(err)
	}
	if err := report.ResilienceTable(two.Resilience).Render(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Errorf("rendered resilience tables differ:\n%s\n%s", b1.String(), b2.String())
	}

	three := cfg
	three.Fault = &fault.Config{Seed: 43, ReadRate: 0.05, WriteRate: 0.05, PoisonRate: 0.10}
	other := run(t, three, recs)
	if reflect.DeepEqual(one.Resilience, other.Resilience) {
		t.Error("different fault seeds produced identical resilience tallies")
	}
}

// TestAbortedDefragLeavesMapUnchanged is the ISSUE's acceptance test: a
// write fault injected mid-defrag must leave the extent map resolving
// every LBA to its pre-defrag contents.
func TestAbortedDefragLeavesMapUnchanged(t *testing.T) {
	d := DefaultDefragConfig()
	mk := func(faulted bool) *Simulator {
		cfg := Config{LogStructured: true, FrontierStart: 1 << 16, Defrag: &d}
		if faulted {
			// Every write attempt faults and the retry budget is tiny, so
			// the relocation's probe writes can never succeed.
			cfg.Fault = &fault.Config{Seed: 1, WriteRate: 1, MaxRetries: 2}
		}
		s := mustSim(t, cfg)
		// Fragment [0, 16): the middle write moves the frontier away.
		s.Step(wr(0, 8))
		s.Step(wr(1000, 8))
		s.Step(wr(8, 8))
		return s
	}

	// Sanity: without faults the defragmenting read coalesces the range.
	s := mk(false)
	s.Step(rd(0, 16))
	if got := len(s.Layer().ResolveAppend(nil, geom.Ext(0, 16))); got != 1 {
		t.Fatalf("fault-free defrag left %d fragments, want 1 — the aborted-defrag check below would be vacuous", got)
	}

	s = mk(true)
	target := geom.Ext(0, 16)
	before := s.Layer().ResolveAppend(nil, target)
	if len(before) < 2 {
		t.Fatalf("setup did not fragment the target: %v", before)
	}
	s.Step(rd(0, 16)) // triggers defrag; every rewrite attempt faults
	after := s.Layer().ResolveAppend(nil, target)
	if !reflect.DeepEqual(before, after) {
		t.Errorf("aborted defrag changed the extent map:\nbefore %v\nafter  %v", before, after)
	}
	st := s.Stats()
	if st.Resilience.AbortedRelocations == 0 {
		t.Error("no aborted relocation recorded")
	}
	if st.DefragWritebacks != 0 {
		t.Errorf("aborted relocation counted as a write-back (%d)", st.DefragWritebacks)
	}
	// Per-LBA check: every sector of the target still resolves somewhere.
	for lba := int64(0); lba < 16; lba++ {
		if frags := s.Layer().ResolveAppend(nil, geom.Ext(lba, 1)); len(frags) != 1 {
			t.Errorf("LBA %d resolves to %d fragments after aborted defrag", lba, len(frags))
		}
	}
}

func TestRunContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := mustSim(t, Config{LogStructured: true})
	_, err := s.RunContext(ctx, trace.NewSliceReader(faultTrace(1000)))
	if err != context.Canceled {
		t.Errorf("RunContext on cancelled ctx = %v, want context.Canceled", err)
	}
	if _, err := CompareContext(ctx, faultTrace(1000)); err != context.Canceled {
		t.Errorf("CompareContext on cancelled ctx = %v, want context.Canceled", err)
	}
}

func TestPoisonedCacheEvictionAndPrefetchFallback(t *testing.T) {
	cc := DefaultCacheConfig()
	pc := DefaultPrefetchConfig()
	cfg := Config{
		LogStructured: true,
		FrontierStart: 1 << 16,
		Cache:         &cc,
		Prefetch:      &pc,
		Fault:         &fault.Config{Seed: 3, PoisonRate: 1},
	}
	s := mustSim(t, cfg)
	s.Step(wr(0, 8))
	s.Step(wr(1000, 8))
	s.Step(wr(8, 8))
	s.Step(rd(0, 16)) // fragmented: fills buffer and cache
	s.Step(rd(0, 16)) // hits are all poisoned: evict + fall back to disk
	st := s.Stats()
	if st.Resilience.PoisonedEvictions == 0 {
		t.Error("no poisoned cache evictions with PoisonRate 1")
	}
	if st.Resilience.FaultsInjected == 0 {
		t.Error("poison events not counted as injected faults")
	}
	if st.Disk.ReadSectors == 0 {
		t.Error("poisoned serves did not fall back to the medium")
	}

	// Prefetch alone (no cache shadowing it) must fall back too.
	cfg = Config{
		LogStructured: true,
		FrontierStart: 1 << 16,
		Prefetch:      &pc,
		Fault:         &fault.Config{Seed: 3, PoisonRate: 1},
	}
	s = mustSim(t, cfg)
	s.Step(wr(0, 8))
	s.Step(wr(1000, 8))
	s.Step(wr(8, 8))
	s.Step(rd(0, 16))
	s.Step(rd(0, 16))
	if st := s.Stats(); st.Resilience.PrefetchFallbacks == 0 {
		t.Error("no prefetch fallbacks with PoisonRate 1")
	}
}

func TestMediaErrorsAreUnrecovered(t *testing.T) {
	// NoLS maps LBA to PBA identically, so the media range is addressable
	// directly from the trace.
	cfg := Config{Fault: &fault.Config{Seed: 9, MediaRanges: []geom.Extent{geom.Ext(100, 10)}}}
	s := mustSim(t, cfg)
	s.Step(rd(100, 4))
	s.Step(rd(500, 4))
	st := s.Stats()
	if st.Resilience.MediaFaults != 1 {
		t.Errorf("MediaFaults = %d, want 1", st.Resilience.MediaFaults)
	}
	if st.Resilience.Retries != 0 {
		t.Errorf("media errors must not be retried, got %d retries", st.Resilience.Retries)
	}
	if st.Resilience.Unrecovered != 1 {
		t.Errorf("Unrecovered = %d, want 1", st.Resilience.Unrecovered)
	}
	// The healthy read transferred; the faulted one did not.
	if st.Disk.ReadSectors != 4 {
		t.Errorf("ReadSectors = %d, want 4 (faulted attempt must not count transfer)", st.Disk.ReadSectors)
	}
	if st.Disk.FaultedReads != 1 {
		t.Errorf("FaultedReads = %d, want 1", st.Disk.FaultedReads)
	}
}

func TestTransientRecoveryCounters(t *testing.T) {
	cfg := Config{
		LogStructured: true,
		FrontierStart: 1 << 20,
		Fault:         &fault.Config{Seed: 11, ReadRate: 0.2, WriteRate: 0.2},
	}
	st := run(t, cfg, faultTrace(2000))
	r := st.Resilience
	if r.TransientFaults == 0 {
		t.Fatal("no transient faults at 20% rates")
	}
	if r.Retries == 0 || r.Recoveries == 0 {
		t.Errorf("retries %d, recoveries %d; want both > 0", r.Retries, r.Recoveries)
	}
	if r.FaultsInjected != r.TransientFaults {
		t.Errorf("FaultsInjected %d != TransientFaults %d with no media/poison configured", r.FaultsInjected, r.TransientFaults)
	}
	if rr := r.RecoveryRate(); rr <= 0 || rr > 1 {
		t.Errorf("RecoveryRate = %v, want in (0, 1]", rr)
	}
	// Conservation still holds for whatever was recovered: the faulted
	// run performs at least the fault-free run's transfers minus what
	// went unrecovered.
	clean := run(t, Config{LogStructured: true, FrontierStart: 1 << 20}, faultTrace(2000))
	if st.Disk.ReadSectors > clean.Disk.ReadSectors {
		t.Errorf("faulted run read more sectors (%d) than fault-free (%d)", st.Disk.ReadSectors, clean.Disk.ReadSectors)
	}
	faultedOps := st.Disk.ReadOps + st.Disk.WriteOps
	cleanOps := clean.Disk.ReadOps + clean.Disk.WriteOps
	if faultedOps <= cleanOps {
		t.Errorf("retries should add disk ops: faulted %d <= clean %d", faultedOps, cleanOps)
	}
}

func TestFaultConfigValidateThroughSimulator(t *testing.T) {
	bad := Config{LogStructured: true, Fault: &fault.Config{ReadRate: 1.5}}
	if _, err := NewSimulator(bad); err == nil {
		t.Error("NewSimulator accepted ReadRate 1.5")
	}
	if got := (Config{LogStructured: true, Fault: &fault.Config{ReadRate: 0.1}}).Name(); got != "LS+faults" {
		t.Errorf("Name = %q, want LS+faults", got)
	}
	if got := (Config{LogStructured: true, Fault: &fault.Config{}}).Name(); got != "LS" {
		t.Errorf("Name with disabled injector = %q, want LS", got)
	}
}
