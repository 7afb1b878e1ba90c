package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
)

// This file defines the simulator's observability probe: a low-level
// event stream covering every statistic the simulator accumulates, so an
// attached probe (internal/obsv's tracer or histogram collector) can
// reconstruct a run's Stats without the simulator knowing how the events
// are consumed. With no probe attached every emit site is a nil-slice
// range — no allocations, no virtual calls — keeping the hot path at its
// uninstrumented cost.

// OpEvent describes one logical trace operation as the simulator
// processes it. Frags is the dynamic fragmentation of a read (the number
// of physically-contiguous pieces) and 0 for writes.
type OpEvent struct {
	// Op is the 0-based index of the operation in the trace.
	Op int64
	// Kind is disk.Read or disk.Write.
	Kind disk.OpKind
	// Lba is the logical extent of the operation.
	Lba geom.Extent
	// Frags is len(Resolve(Lba)) for reads, 0 for writes.
	Frags int
}

// AccessEvent describes one physical I/O.
type AccessEvent struct {
	// Op is the logical operation the I/O serves.
	Op int64
	// Access is the disk model's outcome: kind, physical extent, seek
	// flag and signed distance.
	Access disk.Access
	// Maintenance marks background I/O (cleaning, media-cache merges)
	// rather than host I/O.
	Maintenance bool
}

// MechKind classifies a mechanism outcome event.
type MechKind uint8

// Mechanism outcome kinds. Each corresponds 1:1 to a Stats counter, so a
// probe can reconstruct mechanism statistics by counting events.
const (
	// MechCacheHit is a fragment lookup served from the selective cache.
	MechCacheHit MechKind = iota + 1
	// MechCacheMiss is a fragment lookup that fell through to the medium.
	MechCacheMiss
	// MechCacheInvalidate reports cache entries dropped by an overlapping
	// write; Sectors holds the number of entries dropped.
	MechCacheInvalidate
	// MechPrefetchHit is a fragment access served from the drive buffer.
	MechPrefetchHit
	// MechDefragWriteback is a completed defrag write-back; Sectors holds
	// the sectors rewritten.
	MechDefragWriteback
	// Six retired kinds (6–11, once the fault-recovery outcomes) stay
	// reserved, so the kinds below keep their numbers on the trace wire.
	_
	_
	_
	_
	_
	_
	// MechMaintRead accounts one background maintenance read operation;
	// Sectors holds its extent size. (Per-I/O disk activity is reported
	// separately via AccessEvent.)
	MechMaintRead
	// MechMaintWrite accounts one background maintenance write operation.
	MechMaintWrite
)

var mechNames = [...]string{
	MechCacheHit:        "cache-hit",
	MechCacheMiss:       "cache-miss",
	MechCacheInvalidate: "cache-invalidate",
	MechPrefetchHit:     "prefetch-hit",
	MechDefragWriteback: "defrag-writeback",
	MechMaintRead:       "maint-read",
	MechMaintWrite:      "maint-write",
}

// String returns the kind's kebab-case name.
func (k MechKind) String() string {
	if int(k) < len(mechNames) && mechNames[k] != "" {
		return mechNames[k]
	}
	return fmt.Sprintf("mech(%d)", k)
}

// MechEvent reports one mechanism outcome.
type MechEvent struct {
	// Op is the logical operation during which the outcome occurred.
	Op int64
	// Kind classifies the outcome.
	Kind MechKind
	// Sectors carries the kind-specific magnitude (sectors rewritten,
	// entries invalidated); 0 for pure counting kinds.
	Sectors int64
}

// JournalKind classifies a write-ahead-journal event.
type JournalKind uint8

// Journal event kinds.
const (
	// JournalAppend is an acknowledged write-ahead append.
	JournalAppend JournalKind = iota + 1
	// Kind 2 (once a retried append) stays reserved, so the kinds below
	// keep their numbers on the trace wire.
	_
	// JournalAppendFailure is an append the log rejected; it ends the run.
	JournalAppendFailure
	// JournalCheckpoint is a completed checkpoint; Dur holds its
	// wall-clock cost (stage + fsync + rename), the run's fsync price.
	JournalCheckpoint
	// JournalCrash reports that an injected crash point fired and the
	// run is over.
	JournalCrash
)

var journalNames = [...]string{
	JournalAppend:        "append",
	JournalAppendFailure: "append-failure",
	JournalCheckpoint:    "checkpoint",
	JournalCrash:         "crash",
}

// String returns the kind's kebab-case name.
func (k JournalKind) String() string {
	if int(k) < len(journalNames) && journalNames[k] != "" {
		return journalNames[k]
	}
	return fmt.Sprintf("journal(%d)", k)
}

// JournalEvent reports one write-ahead-journal outcome.
type JournalEvent struct {
	// Op is the logical operation during which the event occurred.
	Op int64
	// Kind classifies the event.
	Kind JournalKind
	// Dur is the wall-clock cost for JournalCheckpoint, 0 otherwise.
	Dur time.Duration
}

// Summary carries the end-of-run values that are snapshots of component
// state rather than accumulations of per-op events. Run and RunContext
// emit it once when the run ends (normally or at an injected crash);
// callers driving Step directly may emit it via Finish.
type Summary struct {
	// WAF is the layer's write amplification factor (1 when the layer
	// does not relocate data on its own).
	WAF float64
	// CheckpointAge is the journal records past the last checkpoint when
	// the run ended (0 when journaling is disabled).
	CheckpointAge int64
}

// Probe receives the simulator's low-level event stream. Implementations
// must not retain the event values' slices (there are none today) and
// must be cheap: probes run synchronously on the simulation goroutine.
type Probe interface {
	// OnOp is called once per logical trace operation.
	OnOp(OpEvent)
	// OnAccess is called once per physical I/O attempt.
	OnAccess(AccessEvent)
	// OnMech is called once per mechanism outcome.
	OnMech(MechEvent)
	// OnJournal is called once per write-ahead-journal event.
	OnJournal(JournalEvent)
	// OnSummary is called once when the run finishes.
	OnSummary(Summary)
}

// AddProbe attaches a probe to the simulator. Probes are invoked in
// attachment order, synchronously, for every event of the run.
func (s *Simulator) AddProbe(p Probe) {
	if p != nil {
		s.probes = append(s.probes, p)
	}
}

// globalProbe, when set, is attached to every Simulator NewSimulator
// builds, so a process-wide observer (e.g. the experiments CLI's live
// metrics collector) can watch runs it does not construct itself.
var globalProbe atomic.Pointer[Probe]

// SetGlobalProbe attaches p to every simulator built after the call;
// nil detaches. The probe must be safe for use across consecutive runs
// (each run delivers its own Summary).
//
// The global probe is a single-run convenience for CLIs that build one
// simulator at a time deep inside a pipeline (experiments, smrsim). It
// is the WRONG tool when several simulators run concurrently in one
// process — every volume's events would land in the same probe, and the
// probe would need to be race-safe against all of them. Multi-tenant
// hosts (internal/volume) must instead pass a per-simulator probe to
// NewSimulator, which observes exactly one simulator.
func SetGlobalProbe(p Probe) {
	if p == nil {
		globalProbe.Store(nil)
		return
	}
	globalProbe.Store(&p)
}

func (s *Simulator) emitOp(ev OpEvent) {
	for _, p := range s.probes {
		p.OnOp(ev)
	}
}

func (s *Simulator) emitAccess(ev AccessEvent) {
	for _, p := range s.probes {
		p.OnAccess(ev)
	}
}

func (s *Simulator) emitMech(kind MechKind, sectors int64) {
	for _, p := range s.probes {
		p.OnMech(MechEvent{Op: s.opIndex, Kind: kind, Sectors: sectors})
	}
}

func (s *Simulator) emitJournal(kind JournalKind, dur time.Duration) {
	for _, p := range s.probes {
		p.OnJournal(JournalEvent{Op: s.opIndex, Kind: kind, Dur: dur})
	}
}

// Finish emits the end-of-run Summary to every probe. Run and RunContext
// call it automatically; drivers stepping the simulator by hand (e.g.
// analysis instrumentation) call it once after the last Step. Calling it
// with no probes attached is free.
func (s *Simulator) Finish() {
	if len(s.probes) == 0 {
		return
	}
	sum := Summary{WAF: 1}
	if s.amplifier != nil {
		sum.WAF = stl.WAF(s.amplifier)
	}
	if s.wal != nil {
		sum.CheckpointAge = s.wal.SinceCheckpoint()
	}
	for _, p := range s.probes {
		p.OnSummary(sum)
	}
}
