package core

import (
	"time"

	"smrseek/internal/disk"
	"smrseek/internal/stl"
)

// This file defines the simulator's observability probe: one event per
// logical operation, one per completed journal checkpoint and one at the
// end of the run. Physical I/O is observed where it is counted: a probe
// is a disk.Observer, and AddProbe registers it on the device, so it sees
// every access the device's Counters count, a banded device's cache and
// cleaning I/O included. An attached probe (internal/obsv's histogram
// collector, internal/analysis's figure instrumentation) follows a run
// without the simulator knowing how the events are consumed. With no
// probe attached every emit site is a nil-slice range — no allocations,
// no virtual calls — keeping the hot path at its uninstrumented cost.

// OpEvent describes one logical trace operation as the simulator
// processes it.
type OpEvent struct {
	// Kind is disk.Read or disk.Write.
	Kind disk.OpKind
	// Fragments is a read's resolution under the configured layer,
	// before any mechanism intervenes; nil for writes. The slice is the
	// simulator's reusable scratch buffer: it is only valid for the
	// duration of the OnOp call and must be copied to be kept.
	Fragments []stl.Fragment
}

// Probe receives the simulator's event stream. Implementations must be
// cheap: probes run synchronously on the simulation goroutine.
type Probe interface {
	// Observer's ObserveAccess is called by the device once per
	// physical I/O it counts, with the disk model's outcome: host,
	// maintenance and device-internal I/O alike.
	disk.Observer
	// OnOp is called once per logical trace operation.
	OnOp(OpEvent)
	// OnCheckpoint is called once per completed journal checkpoint with
	// its wall-clock cost (stage + fsync + rename), the run's fsync price.
	OnCheckpoint(time.Duration)
	// OnFinish is called once when the run finishes.
	OnFinish()
}

// AddProbe attaches a probe to the simulator and registers it as an
// observer of the simulator's device. Probes are invoked in attachment
// order, synchronously, for every event of the run.
func (s *Simulator) AddProbe(p Probe) {
	if p != nil {
		s.probes = append(s.probes, p)
		s.dev.AddObserver(p)
	}
}

func (s *Simulator) emitOp(kind disk.OpKind, frags []stl.Fragment) {
	for _, p := range s.probes {
		p.OnOp(OpEvent{Kind: kind, Fragments: frags})
	}
}

// Finish delivers OnFinish to every probe. Run and RunContext call it
// automatically; a driver that steps the simulator itself (the volume
// actor, through Apply and Commit) calls it once after the last record.
func (s *Simulator) Finish() {
	for _, p := range s.probes {
		p.OnFinish()
	}
}
