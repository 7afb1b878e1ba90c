// Package stl implements the block translation layers the paper compares:
// NoLS (untranslated, update-in-place — a conventional drive) and LS
// (log-structured with a full extent map and an advancing write frontier,
// the high-performance STL design of §II's "disk model").
//
// A translation layer is pure address arithmetic: it maps a logical
// operation to the physical extents the disk must visit. Seek accounting
// happens in package disk; mechanisms (defrag, prefetch, caching) compose
// around the layer in package core.
package stl

import (
	"smrseek/internal/extmap"
	"smrseek/internal/geom"
)

// Fragment is one physically-contiguous piece of a resolved logical
// operation.
type Fragment struct {
	// Lba is the logical range this fragment serves.
	Lba geom.Extent
	// Pba is the physical start sector.
	Pba geom.Sector
}

// PhysExtent returns the physical extent of the fragment.
func (f Fragment) PhysExtent() geom.Extent { return geom.Ext(f.Pba, f.Lba.Count) }

// Layer is a block translation layer. Every method appends its
// fragments to a caller-provided buffer (usually a per-simulator scratch
// slice, passed with length 0 and warm capacity) and returns it, so a
// warm buffer keeps the per-access hot path allocation-free. The prefix
// of dst is never modified, and an empty extent appends nothing.
type Layer interface {
	// ResolveAppend maps a logical read extent to the physical fragments
	// that hold its data, in ascending LBA order. The number appended is
	// the read's dynamic fragmentation.
	ResolveAppend(dst []Fragment, lba geom.Extent) []Fragment
	// WriteAppend maps a logical write extent to the physical extents
	// that receive the data, in the order they are written.
	WriteAppend(dst []Fragment, lba geom.Extent) []Fragment
	// Name identifies the layer in reports.
	Name() string
}

// NoLS is the untranslated baseline: every LBA lives at PBA == LBA, and
// writes update in place.
type NoLS struct{}

// NewNoLS returns the identity translation layer.
func NewNoLS() *NoLS { return &NoLS{} }

// ResolveAppend implements Layer.
func (*NoLS) ResolveAppend(dst []Fragment, lba geom.Extent) []Fragment {
	if lba.Empty() {
		return dst
	}
	return append(dst, Fragment{Lba: lba, Pba: lba.Start})
}

// WriteAppend implements Layer.
func (*NoLS) WriteAppend(dst []Fragment, lba geom.Extent) []Fragment {
	if lba.Empty() {
		return dst
	}
	return append(dst, Fragment{Lba: lba, Pba: lba.Start})
}

// Name implements Layer.
func (*NoLS) Name() string { return "NoLS" }

// LS is the log-structured layer: every write lands at the write
// frontier, which starts above the highest LBA the workload will touch
// (unwritten data is assumed resident at PBA == LBA, per the paper §III).
type LS struct {
	m        *extmap.Map
	frontier geom.Sector
	written  int64 // sectors appended to the log (includes rewrites)
}

// NewLS returns a log-structured layer whose write frontier starts at
// frontierStart (typically the device size or trace MaxLBA). The map
// coalesces mappings contiguous in both address spaces, so sequential
// frontier writes stay one mapping — and so checkpoints of long
// sequential workloads stay small.
func NewLS(frontierStart geom.Sector) *LS {
	return &LS{m: extmap.NewCoalesced(), frontier: frontierStart}
}

// ResolveAppend implements Layer: fragments stream straight from the
// extent map's visitor into dst, so a warm buffer makes the resolution
// allocation-free.
func (l *LS) ResolveAppend(dst []Fragment, lba geom.Extent) []Fragment {
	l.m.LookupFunc(lba, func(r extmap.Resolved) bool {
		dst = append(dst, Fragment{Lba: r.Lba, Pba: r.Pba})
		return true
	})
	return dst
}

// WriteAppend implements Layer: the whole extent is appended at the
// frontier. Displaced mappings are dropped without materializing (LS
// never reuses old log space).
func (l *LS) WriteAppend(dst []Fragment, lba geom.Extent) []Fragment {
	if lba.Empty() {
		return dst
	}
	pba := l.frontier
	l.m.InsertFunc(lba, pba, nil)
	l.frontier += lba.Count
	l.written += lba.Count
	return append(dst, Fragment{Lba: lba, Pba: pba})
}

// Name implements Layer.
func (l *LS) Name() string { return "LS" }

// Frontier returns the current write frontier position.
func (l *LS) Frontier() geom.Sector { return l.frontier }

// LogSectors returns the total sectors ever appended to the log; minus
// the live mapped sectors this is the dead (cleanable) space.
func (l *LS) LogSectors() int64 { return l.written }

// Map exposes the extent map for analyses and recovery checks.
func (l *LS) Map() *extmap.Map { return l.m }

var (
	_ Layer = (*NoLS)(nil)
	_ Layer = (*LS)(nil)
)
