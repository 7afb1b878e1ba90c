// Package mcache implements the media-cache translation layer the paper
// describes as the design shipped in real drive-managed SMR devices
// (§II): host writes are logged to a reserved region of the disk (the
// media cache), and later merged back into data zones where they are
// stored in LBA order. Because merged data lives at its LBA, read seek
// amplification is minimal — but every merge rewrites whole zones,
// producing the high cleaning overhead the paper's log-structured
// alternative avoids.
//
// The layer implements stl.Layer for address translation, stl.Maintainer
// to surface merge I/O to the simulator's disk model, and stl.Amplifier
// to report write amplification. Every physical write it emits is
// zone-compatible: cache appends are sequential, and a merge rewrites a
// data zone whole, from its start.
package mcache

import (
	"fmt"
	"sort"

	"smrseek/internal/disk"
	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
)

// mergeTrigger is the cache fill fraction that starts a merge of all
// dirty zones.
const mergeTrigger = 0.8

// Config sizes the media-cache layer.
type Config struct {
	// DeviceSectors is the LBA space (the data region), a multiple of
	// ZoneSectors.
	DeviceSectors int64
	// ZoneSectors is the data zone size (commonly 256 MiB on real
	// drives; tests use smaller zones).
	ZoneSectors int64
	// CacheSectors is the reserved media-cache size, a multiple of
	// ZoneSectors. Drives reserve a few GB out of several TB.
	CacheSectors int64
}

// Layer is the media-cache translation layer.
type Layer struct {
	cfg Config

	m    *extmap.Map // LBA → media-cache PBA, only for unmerged updates
	head geom.Sector // next cache sector to fill
	used int64

	dirty map[int]bool // data zone index → has unmerged updates

	pending []stl.MaintenanceOp

	hostSectors  int64
	extraSectors int64
}

// New builds a media-cache layer; the configuration must tile exactly
// into zones.
func New(cfg Config) (*Layer, error) {
	if cfg.ZoneSectors <= 0 {
		return nil, fmt.Errorf("mcache: non-positive zone size")
	}
	if cfg.DeviceSectors <= 0 || cfg.DeviceSectors%cfg.ZoneSectors != 0 {
		return nil, fmt.Errorf("mcache: device size %d not a multiple of zone size %d", cfg.DeviceSectors, cfg.ZoneSectors)
	}
	if cfg.CacheSectors <= 0 || cfg.CacheSectors%cfg.ZoneSectors != 0 {
		return nil, fmt.Errorf("mcache: cache size %d not a multiple of zone size %d", cfg.CacheSectors, cfg.ZoneSectors)
	}
	// Data zones hold pre-existing data at PBA == LBA. The cache region
	// after them is written as a circular log; drives place it on
	// conventional (non-shingled) tracks.
	return &Layer{
		cfg:   cfg,
		m:     extmap.New(),
		head:  cfg.DeviceSectors,
		dirty: make(map[int]bool),
	}, nil
}

// Name implements stl.Layer.
func (l *Layer) Name() string { return "MediaCache" }

// ResolveAppend implements stl.Layer: unmerged updates resolve into the
// cache region; everything else is at its LBA.
func (l *Layer) ResolveAppend(dst []stl.Fragment, lba geom.Extent) []stl.Fragment {
	l.m.LookupFunc(lba, func(r extmap.Resolved) bool {
		dst = append(dst, stl.Fragment{Lba: r.Lba, Pba: r.Pba})
		return true
	})
	return dst
}

// WriteAppend implements stl.Layer: the extent is appended to the media
// cache (split when it wraps), and a merge is queued when the cache
// fills past the trigger.
func (l *Layer) WriteAppend(dst []stl.Fragment, lba geom.Extent) []stl.Fragment {
	if lba.Empty() {
		return dst
	}
	l.hostSectors += lba.Count
	rest := lba
	for !rest.Empty() {
		if l.spaceLeft() == 0 {
			l.merge()
		}
		n := rest.Count
		if n > l.spaceLeft() {
			n = l.spaceLeft()
		}
		piece := geom.Ext(rest.Start, n)
		pba := l.head
		l.m.Insert(piece, pba)
		l.head += n
		l.used += n
		l.dirtyRange(piece)
		dst = append(dst, stl.Fragment{Lba: piece, Pba: pba})
		rest = geom.Span(piece.End(), rest.End())
	}
	if float64(l.used) >= mergeTrigger*float64(l.cfg.CacheSectors) {
		l.merge()
	}
	return dst
}

func (l *Layer) spaceLeft() int64 {
	return l.cfg.DeviceSectors + l.cfg.CacheSectors - l.head
}

func (l *Layer) dirtyRange(lba geom.Extent) {
	first := int(lba.Start / l.cfg.ZoneSectors)
	last := int((lba.End() - 1) / l.cfg.ZoneSectors)
	for z := first; z <= last; z++ {
		l.dirty[z] = true
	}
}

// merge performs the read-modify-write of every dirty data zone and
// resets the cache, queuing the physical I/O as maintenance operations:
// read the old zone, read the zone's cached updates out of the media
// cache, then rewrite the zone sequentially (reset + full write).
func (l *Layer) merge() {
	if len(l.dirty) == 0 {
		return
	}
	zones := make([]int, 0, len(l.dirty))
	for z := range l.dirty {
		zones = append(zones, z)
	}
	sort.Ints(zones)
	for _, zi := range zones {
		zext := geom.Ext(int64(zi)*l.cfg.ZoneSectors, l.cfg.ZoneSectors)
		// Read the zone's current contents.
		l.pending = append(l.pending, stl.MaintenanceOp{Kind: disk.Read, Extent: zext})
		// Read each cached fragment belonging to the zone.
		for _, r := range l.m.Lookup(zext) {
			if r.Identity {
				continue
			}
			l.pending = append(l.pending, stl.MaintenanceOp{Kind: disk.Read, Extent: r.PhysExtent()})
		}
		// Rewrite the zone in place, sequentially from its start.
		l.pending = append(l.pending, stl.MaintenanceOp{Kind: disk.Write, Extent: zext})
		l.extraSectors += l.cfg.ZoneSectors
		l.m.Delete(zext)
	}
	l.dirty = make(map[int]bool)
	l.head = l.cfg.DeviceSectors
	l.used = 0
}

// PendingMaintenance implements stl.Maintainer.
func (l *Layer) PendingMaintenance() []stl.MaintenanceOp {
	out := l.pending
	l.pending = nil
	return out
}

// HostSectors implements stl.Amplifier.
func (l *Layer) HostSectors() int64 { return l.hostSectors }

// ExtraSectors implements stl.Amplifier.
func (l *Layer) ExtraSectors() int64 { return l.extraSectors }

var (
	_ stl.Layer      = (*Layer)(nil)
	_ stl.Maintainer = (*Layer)(nil)
	_ stl.Amplifier  = (*Layer)(nil)
)
