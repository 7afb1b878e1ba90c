// Package obsv is the simulator's observability layer: a structured
// event trace (recordable to a binary file and replayable to the run's
// exact Stats, or to a human-readable text log), streaming log-bucketed
// histograms for seek distance, fragmentation and modelled latency, and
// a small HTTP server exposing live counters, histogram snapshots and
// pprof while a run is in flight.
//
// Everything here attaches to a core.Simulator through the core.Probe
// interface; a simulator with no probe attached pays nothing.
package obsv

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
)

// Tracer is a core.Probe that records the event stream to a sink.
// Errors are sticky: the first write failure stops the recording and is
// reported by Err and Close, so a tracer never aborts a simulation.
type Tracer struct {
	w    *bufio.Writer
	c    io.Closer // nil when the tracer does not own the destination
	text bool
	buf  [recordSize]byte
	err  error
}

// NewTracer returns a tracer recording the binary wire format to w.
// The destination is not closed by Close unless the tracer was built by
// Create.
func NewTracer(w io.Writer) *Tracer {
	t := &Tracer{w: bufio.NewWriterSize(w, 1<<16)}
	_, t.err = t.w.Write(magic[:])
	return t
}

// NewTextTracer returns a tracer recording one human-readable line per
// event. Text traces are for eyeballs and diffs; they cannot be
// replayed.
func NewTextTracer(w io.Writer) *Tracer {
	return &Tracer{w: bufio.NewWriterSize(w, 1<<16), text: true}
}

// Create opens path for writing and returns a tracer that owns the
// file: Close flushes and closes it. A path ending in ".txt" selects
// the text format; anything else gets the binary wire format.
func Create(path string) (*Tracer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	var t *Tracer
	if strings.HasSuffix(path, ".txt") {
		t = NewTextTracer(f)
	} else {
		t = NewTracer(f)
	}
	t.c = f
	return t, nil
}

// Err returns the first write error, or nil.
func (t *Tracer) Err() error { return t.err }

// Close flushes the sink and, if the tracer owns it, closes it. It
// returns the first error seen over the tracer's whole life.
func (t *Tracer) Close() error {
	if err := t.w.Flush(); t.err == nil {
		t.err = err
	}
	if t.c != nil {
		if err := t.c.Close(); t.err == nil {
			t.err = err
		}
	}
	return t.err
}

func (t *Tracer) line(format string, args ...interface{}) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

func extStr(e geom.Extent) string {
	return fmt.Sprintf("[%d,%d)", e.Start, e.End())
}

// OnOp implements core.Probe.
func (t *Tracer) OnOp(ev core.OpEvent) {
	if t.text {
		if ev.Kind == disk.Read {
			t.line("op      %8d read  lba %s frags=%d\n", ev.Op, extStr(ev.Lba), ev.Frags)
		} else {
			t.line("op      %8d write lba %s\n", ev.Op, extStr(ev.Lba))
		}
		return
	}
	t.record(evOp, uint8(ev.Kind), 0, ev.Op, ev.Lba.Start, ev.Lba.Count, int64(ev.Frags))
}

// OnAccess implements core.Probe.
func (t *Tracer) OnAccess(ev core.AccessEvent) {
	a := ev.Access
	if t.text {
		var extra strings.Builder
		if a.Seeked {
			fmt.Fprintf(&extra, " seek=%+d", a.Distance)
		}
		if ev.Maintenance {
			extra.WriteString(" maint")
		}
		t.line("access  %8d %-5s pba %s%s\n", ev.Op, a.Kind, extStr(a.Extent), extra.String())
		return
	}
	var flags uint8
	if a.Seeked {
		flags |= flagSeeked
	}
	if ev.Maintenance {
		flags |= flagMaintenance
	}
	t.record(evAccess, uint8(a.Kind), flags, ev.Op, a.Extent.Start, a.Extent.Count, a.Distance)
}

// OnMech implements core.Probe.
func (t *Tracer) OnMech(ev core.MechEvent) {
	if t.text {
		if ev.Sectors != 0 {
			t.line("mech    %8d %s n=%d\n", ev.Op, ev.Kind, ev.Sectors)
		} else {
			t.line("mech    %8d %s\n", ev.Op, ev.Kind)
		}
		return
	}
	t.record(evMech, uint8(ev.Kind), 0, ev.Op, ev.Sectors, 0, 0)
}

// OnJournal implements core.Probe.
func (t *Tracer) OnJournal(ev core.JournalEvent) {
	if t.text {
		if ev.Dur != 0 {
			t.line("journal %8d %s dur=%s\n", ev.Op, ev.Kind, ev.Dur)
		} else {
			t.line("journal %8d %s\n", ev.Op, ev.Kind)
		}
		return
	}
	t.record(evJournal, uint8(ev.Kind), 0, ev.Op, int64(ev.Dur), 0, 0)
}

// OnSummary implements core.Probe.
func (t *Tracer) OnSummary(sum core.Summary) {
	if t.text {
		t.line("summary waf=%.4f ckpt-age=%d\n", sum.WAF, sum.CheckpointAge)
		return
	}
	t.record(evSummary, 0, 0, 0, int64(floatBits(sum.WAF)), sum.CheckpointAge, 0)
}
