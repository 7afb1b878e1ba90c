// Package trace defines the block-trace record model shared by the
// simulator, the synthetic workload generators and the on-disk trace
// formats (MSR Cambridge CSV and a documented CloudPhysics-style CSV).
//
// A trace is a temporally ordered stream of Records. Streams are consumed
// through the Reader interface so multi-gigabyte trace files and
// generated workloads look identical to the simulator.
package trace

import (
	"fmt"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
)

// Record is one block I/O operation.
type Record struct {
	// Time is the operation timestamp in nanoseconds from an arbitrary
	// epoch. Synthetic workloads use a virtual clock.
	Time int64
	// Kind is Read or Write.
	Kind disk.OpKind
	// Extent is the LBA range of the operation.
	Extent geom.Extent
}

// String renders the record for diagnostics.
func (r Record) String() string {
	return fmt.Sprintf("%d %s %v", r.Time, r.Kind, r.Extent)
}

// Reader yields records in temporal order. Next returns ok=false at the
// end of the stream; Err reports any underlying failure afterwards.
type Reader interface {
	Next() (Record, bool)
	Err() error
}

// SliceReader adapts an in-memory record slice to the Reader interface.
type SliceReader struct {
	recs []Record
	i    int
}

// NewSliceReader returns a Reader over recs. The slice is not copied.
func NewSliceReader(recs []Record) *SliceReader { return &SliceReader{recs: recs} }

// Next implements Reader.
func (s *SliceReader) Next() (Record, bool) {
	if s.i >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.i]
	s.i++
	return r, true
}

// Err implements Reader; a slice reader never fails.
func (s *SliceReader) Err() error { return nil }

// ReadAll drains a Reader into a slice.
func ReadAll(r Reader) ([]Record, error) {
	var out []Record
	for {
		rec, ok := r.Next()
		if !ok {
			break
		}
		out = append(out, rec)
	}
	return out, r.Err()
}

// MaxLBA returns the highest end LBA across all records (the write
// frontier of a log-structured device starts above it), or 0 for an empty
// trace.
func MaxLBA(recs []Record) geom.Sector {
	var m geom.Sector
	for _, r := range recs {
		if e := r.Extent.End(); e > m {
			m = e
		}
	}
	return m
}

// WriteFootprint returns the number of distinct sectors the records ever
// write — the live-data upper bound used to size finite logs.
func WriteFootprint(recs []Record) int64 {
	set := geom.NewSet()
	for _, r := range recs {
		if r.Kind == disk.Write {
			set.Add(r.Extent)
		}
	}
	return set.Sectors()
}
