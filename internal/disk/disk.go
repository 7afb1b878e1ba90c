// Package disk models the paper's infinite-disk head position and seek
// accounting (§II): a seek occurs iff an I/O operation starts at a sector
// other than the one immediately following the previous operation, and it
// is a read seek or a write seek according to the *second* of the two
// operations. The model tracks no geometry; an optional TimeModel
// approximates seek cost as a function of distance for time-weighted
// reporting (§III).
package disk

import (
	"fmt"

	"smrseek/internal/geom"
)

// OpKind distinguishes reads from writes.
type OpKind uint8

const (
	// Read is a read operation.
	Read OpKind = iota
	// Write is a write operation.
	Write
)

// String returns "read" or "write".
func (k OpKind) String() string {
	if k == Read {
		return "read"
	}
	return "write"
}

// Access describes the outcome of positioning the head for one I/O.
type Access struct {
	Kind     OpKind
	Extent   geom.Extent
	Seeked   bool
	Distance int64 // signed sectors from previous end to this start (0 when sequential)
}

// Counters accumulates the seek statistics the paper reports.
type Counters struct {
	ReadOps    int64
	WriteOps   int64
	ReadSeeks  int64
	WriteSeeks int64

	// ReadSectors and WriteSectors count sectors transferred.
	ReadSectors  int64
	WriteSectors int64

	// LongSeeks counts seeks whose |distance| exceeds LongSeekSectors
	// (Figure 3 plots only these).
	LongReadSeeks  int64
	LongWriteSeeks int64
}

// LongSeekBytes is the paper's long-seek threshold: Figure 3 ignores
// seeks shorter than +/- 500 KB.
const LongSeekBytes = 500 * 1000

// LongSeekSectors is LongSeekBytes expressed in sectors.
const LongSeekSectors = LongSeekBytes / geom.SectorSize

// TotalSeeks returns read + write seeks.
func (c Counters) TotalSeeks() int64 { return c.ReadSeeks + c.WriteSeeks }

// Observer receives every head access; analyses (distance CDFs, windowed
// series) hook in here without the Disk knowing about them.
type Observer interface {
	ObserveAccess(Access)
}

// Device is the pluggable geometry interface internal/core drives. The
// paper's infinite model (*Disk) and the finite banded model
// (internal/band.Device) both implement it; the simulator composes
// against this interface so every mechanism runs unchanged on either.
type Device interface {
	// Do performs one I/O at the physical extent, charging seek
	// accounting; each physical access it makes is reported to the
	// observers, which are the only readers of its outcome.
	Do(kind OpKind, ext geom.Extent)
	// Counters returns the accumulated seek statistics.
	Counters() Counters
	// Position returns the sector following the previous I/O — the only
	// position from which the next I/O is seek-free.
	Position() geom.Sector
	// AddObserver registers an observer for every subsequent access.
	AddObserver(o Observer)
}

// Disk is the head-position model. The zero value is not ready; use New.
type Disk struct {
	pos       geom.Sector // sector following the last transferred sector
	first     bool        // true until the first access
	counters  Counters
	observers []Observer
}

// New returns a disk whose head position is undefined until the first
// access; by the paper's definition the first operation of a trace does
// not count as a seek (there is no previous operation).
func New() *Disk {
	return &Disk{first: true}
}

var _ Device = (*Disk)(nil)

// AddObserver registers an observer for every subsequent access.
func (d *Disk) AddObserver(o Observer) { d.observers = append(d.observers, o) }

// Counters returns the accumulated seek statistics.
func (d *Disk) Counters() Counters { return d.counters }

// Position returns the sector that would follow the previous I/O — the
// only position from which the next I/O is seek-free.
func (d *Disk) Position() geom.Sector { return d.pos }

// Do performs one I/O of the given kind at the physical extent, updating
// seek accounting, and reports the access outcome to the observers.
func (d *Disk) Do(kind OpKind, ext geom.Extent) {
	if ext.Empty() {
		return
	}
	a := Access{Kind: kind, Extent: ext}
	if d.first {
		d.first = false
	} else if ext.Start != d.pos {
		a.Seeked = true
		a.Distance = ext.Start - d.pos
	}
	d.pos = ext.End()

	switch kind {
	case Read:
		d.counters.ReadOps++
		d.counters.ReadSectors += ext.Count
		if a.Seeked {
			d.counters.ReadSeeks++
			if abs64(a.Distance) > LongSeekSectors {
				d.counters.LongReadSeeks++
			}
		}
	case Write:
		d.counters.WriteOps++
		d.counters.WriteSectors += ext.Count
		if a.Seeked {
			d.counters.WriteSeeks++
			if abs64(a.Distance) > LongSeekSectors {
				d.counters.LongWriteSeeks++
			}
		}
	}
	for _, o := range d.observers {
		o.ObserveAccess(a)
	}
}

// String summarizes the counters.
func (c Counters) String() string {
	return fmt.Sprintf("reads=%d (seeks=%d) writes=%d (seeks=%d)",
		c.ReadOps, c.ReadSeeks, c.WriteOps, c.WriteSeeks)
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
