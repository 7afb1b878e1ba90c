// Package gc implements a finite-disk log-structured translation layer
// with segment cleaning — the overhead the paper's infinite-disk model
// deliberately excludes ("for archival workloads cleaning may never be
// needed", §II) and the literature it cites studies extensively.
//
// The log region is divided into fixed-size segments. Writes fill the
// active segment; when free segments run low, a cleaner picks a victim —
// greedily (least live data) or by LFS cost-benefit (age × free share) —
// relocates its live extents to the log head, and recycles it. The
// relocation I/O is surfaced through stl.Maintainer so the simulator's
// disk model charges its seeks, and stl.Amplifier reports the resulting
// write amplification, letting experiments put numbers on the paper's
// claim that a full-map log-structured STL trades cleaning for read
// seeks while the media-cache design does the opposite.
package gc

import (
	"fmt"

	"smrseek/internal/disk"
	"smrseek/internal/extmap"
	"smrseek/internal/geom"
	"smrseek/internal/stl"
)

// Policy selects the victim-segment heuristic.
type Policy int

const (
	// Greedy picks the segment with the least live data.
	Greedy Policy = iota
	// CostBenefit picks by the LFS benefit/cost ratio
	// age * (1-u) / (1+u), preferring old, mostly-dead segments.
	CostBenefit
)

// String names the policy.
func (p Policy) String() string {
	if p == CostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

// Config sizes the segmented log.
type Config struct {
	// DeviceSectors is the LBA space; the log region begins right above
	// it, as in the paper's model.
	DeviceSectors int64
	// LogSectors is the log region capacity, a multiple of
	// SegmentSectors. The ratio LogSectors / (written volume) is the
	// over-provisioning that drives cleaning cost.
	LogSectors int64
	// SegmentSectors is the cleaning unit (an LFS segment / SMR zone).
	SegmentSectors int64
	// Policy selects the victim heuristic.
	Policy Policy
}

// Cleaning starts when fewer than freeLowWater segments are free and
// proceeds until freeHighWater are.
const (
	freeLowWater  = 2
	freeHighWater = 4
)

// Layer is the finite log-structured translation layer.
type Layer struct {
	cfg      Config
	m        *extmap.Map
	logStart geom.Sector

	segs []segment
	free []int
	cur  int   // active segment index
	off  int64 // fill offset inside the active segment

	pending []stl.MaintenanceOp
	scratch []stl.Fragment // cleaner relocation placements

	hostSectors  int64
	extraSectors int64
	now          int64 // logical clock: one tick per host write
}

type segment struct {
	live      int64
	lastWrite int64
	full      bool
}

// New builds the layer; LogSectors must tile into segments and leave at
// least freeHighWater+1 segments.
func New(cfg Config) (*Layer, error) {
	if cfg.SegmentSectors <= 0 {
		return nil, fmt.Errorf("gc: non-positive segment size")
	}
	if cfg.DeviceSectors < 0 {
		return nil, fmt.Errorf("gc: negative device size")
	}
	if cfg.LogSectors <= 0 || cfg.LogSectors%cfg.SegmentSectors != 0 {
		return nil, fmt.Errorf("gc: log size %d not a multiple of segment size %d", cfg.LogSectors, cfg.SegmentSectors)
	}
	n := int(cfg.LogSectors / cfg.SegmentSectors)
	if n < freeHighWater+1 {
		return nil, fmt.Errorf("gc: %d segments too few for high watermark %d", n, freeHighWater)
	}
	l := &Layer{
		cfg:      cfg,
		m:        extmap.New(),
		logStart: cfg.DeviceSectors,
		segs:     make([]segment, n),
	}
	for i := 1; i < n; i++ {
		l.free = append(l.free, i)
	}
	l.cur = 0
	return l, nil
}

// Name implements stl.Layer.
func (l *Layer) Name() string { return "SegLS(" + l.cfg.Policy.String() + ")" }

// ResolveAppend implements stl.Layer.
func (l *Layer) ResolveAppend(dst []stl.Fragment, lba geom.Extent) []stl.Fragment {
	l.m.LookupFunc(lba, func(r extmap.Resolved) bool {
		dst = append(dst, stl.Fragment{Lba: r.Lba, Pba: r.Pba})
		return true
	})
	return dst
}

// WriteAppend implements stl.Layer: the extent is placed at the log
// head (splitting across segments as needed); cleaning runs afterwards
// if free segments fell below the low watermark.
func (l *Layer) WriteAppend(dst []stl.Fragment, lba geom.Extent) []stl.Fragment {
	if lba.Empty() {
		return dst
	}
	l.now++
	l.hostSectors += lba.Count
	dst = l.place(dst, lba)
	if len(l.free) < freeLowWater {
		l.clean()
	}
	return dst
}

func (l *Layer) segBase(i int) geom.Sector {
	return l.logStart + int64(i)*l.cfg.SegmentSectors
}

func (l *Layer) segOf(pba geom.Sector) int {
	return int((pba - l.logStart) / l.cfg.SegmentSectors)
}

// place appends the extent at the log head, appends its placement to
// dst and maintains live counts. It never triggers cleaning itself, so
// the cleaner can call it safely.
func (l *Layer) place(dst []stl.Fragment, lba geom.Extent) []stl.Fragment {
	rest := lba
	for !rest.Empty() {
		room := l.cfg.SegmentSectors - l.off
		if room == 0 {
			l.segs[l.cur].full = true
			next, ok := l.popFree()
			if !ok {
				// The watermarks guarantee space; hitting this means the
				// log is undersized for the workload.
				panic("gc: log out of free segments — increase LogSectors")
			}
			l.cur, l.off = next, 0
			room = l.cfg.SegmentSectors
		}
		n := rest.Count
		if n > room {
			n = room
		}
		piece := geom.Ext(rest.Start, n)
		pba := l.segBase(l.cur) + l.off
		for _, d := range l.m.Insert(piece, pba) {
			// Displaced pieces always live in the log region (identity
			// data is never mapped).
			l.segs[l.segOf(d.Pba)].live -= d.Lba.Count
		}
		seg := &l.segs[l.cur]
		seg.live += n
		seg.lastWrite = l.now
		l.off += n
		dst = append(dst, stl.Fragment{Lba: piece, Pba: pba})
		rest = geom.Span(piece.End(), rest.End())
	}
	return dst
}

func (l *Layer) popFree() (int, bool) {
	if len(l.free) == 0 {
		return 0, false
	}
	i := l.free[0]
	l.free = l.free[1:]
	l.segs[i].full = false
	return i, true
}

// clean relocates victims until the high watermark is restored.
func (l *Layer) clean() {
	for len(l.free) < freeHighWater {
		victim, ok := l.pickVictim()
		if !ok {
			return // nothing cleanable (all segments live or active)
		}
		l.cleanSegment(victim)
	}
}

// pickVictim returns the best full segment under the policy.
func (l *Layer) pickVictim() (int, bool) {
	best := -1
	var bestScore float64
	for i := range l.segs {
		s := &l.segs[i]
		if i == l.cur || !s.full {
			continue
		}
		if s.live >= l.cfg.SegmentSectors {
			// Fully live: cleaning it frees nothing and would churn the
			// log forever when every segment is live (log undersized).
			continue
		}
		var score float64
		u := float64(s.live) / float64(l.cfg.SegmentSectors)
		switch l.cfg.Policy {
		case Greedy:
			score = 1 - u // fewer live sectors = better
		case CostBenefit:
			age := float64(l.now - s.lastWrite)
			score = age * (1 - u) / (1 + u)
		}
		if best == -1 || score > bestScore {
			best, bestScore = i, score
		}
	}
	return best, best != -1
}

// cleanSegment relocates a victim's live extents and recycles it.
func (l *Layer) cleanSegment(victim int) {
	vext := geom.Ext(l.segBase(victim), l.cfg.SegmentSectors)
	// Collect the victim's live mappings (full map walk; cleans are rare
	// relative to host operations).
	var live []extmap.Mapping
	l.m.Walk(func(m extmap.Mapping) bool {
		if m.Pba >= vext.Start && m.Pba < vext.End() {
			live = append(live, m)
		}
		return true
	})
	for _, m := range live {
		// Read the live extent from the victim...
		l.pending = append(l.pending, stl.MaintenanceOp{Kind: disk.Read, Extent: m.PhysExtent()})
		// ...and rewrite it at the log head. The placement goes to the
		// layer's own scratch buffer: a clean runs inside WriteAppend,
		// whose dst belongs to the caller.
		l.scratch = l.place(l.scratch[:0], m.Lba)
		for _, f := range l.scratch {
			l.pending = append(l.pending, stl.MaintenanceOp{Kind: disk.Write, Extent: f.PhysExtent()})
		}
		l.extraSectors += m.Lba.Count
	}
	if l.segs[victim].live != 0 {
		panic(fmt.Sprintf("gc: victim %d has %d live sectors after cleaning", victim, l.segs[victim].live))
	}
	l.free = append(l.free, victim)
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
