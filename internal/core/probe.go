package core

import (
	"sync/atomic"
	"time"

	"smrseek/internal/disk"
)

// This file defines the simulator's observability probe: the events its
// consumers read — one per logical operation, one per physical I/O, one
// per completed journal checkpoint and one at the end of the run — so an
// attached probe (internal/obsv's histogram collector, the volume
// actor's fragment probe) can follow a run without the simulator knowing
// how the events are consumed. With no probe attached every emit site is
// a nil-slice range — no allocations, no virtual calls — keeping the hot
// path at its uninstrumented cost.

// OpEvent describes one logical trace operation as the simulator
// processes it.
type OpEvent struct {
	// Kind is disk.Read or disk.Write.
	Kind disk.OpKind
	// Frags is a read's dynamic fragmentation, the number of
	// physically-contiguous pieces it resolved to; 0 for writes.
	Frags int
}

// Probe receives the simulator's event stream. Implementations must be
// cheap: probes run synchronously on the simulation goroutine.
type Probe interface {
	// OnOp is called once per logical trace operation.
	OnOp(OpEvent)
	// OnAccess is called once per physical I/O, host and maintenance
	// alike, with the disk model's outcome.
	OnAccess(disk.Access)
	// OnCheckpoint is called once per completed journal checkpoint with
	// its wall-clock cost (stage + fsync + rename), the run's fsync price.
	OnCheckpoint(time.Duration)
	// OnFinish is called once when the run finishes.
	OnFinish()
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
// (each run delivers its own OnFinish).
//
// The global probe is a single-run convenience for a CLI that builds
// its simulators deep inside a pipeline (experiments). It is the WRONG
// tool when several simulators run concurrently in one process — every
// volume's events would land in the same probe, and the probe would
// need to be race-safe against all of them. A caller that builds the
// simulator itself (smrsim) attaches with AddProbe, and multi-tenant
// hosts (internal/volume) pass a per-simulator probe to NewSimulator,
// which observes exactly one simulator.
func SetGlobalProbe(p Probe) {
	if p == nil {
		globalProbe.Store(nil)
		return
	}
	globalProbe.Store(&p)
}

func (s *Simulator) emitOp(kind disk.OpKind, frags int) {
	for _, p := range s.probes {
		p.OnOp(OpEvent{Kind: kind, Frags: frags})
	}
}

// Finish delivers OnFinish to every probe. Run and RunContext call it
// automatically; drivers stepping the simulator by hand (e.g. analysis
// instrumentation) call it once after the last Step.
func (s *Simulator) Finish() {
	for _, p := range s.probes {
		p.OnFinish()
	}
}
