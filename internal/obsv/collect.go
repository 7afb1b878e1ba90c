// Package obsv is the simulator's observability layer: streaming
// log-bucketed histograms for seek distance, fragmentation, modelled
// latency and journal checkpoint cost, and a small HTTP server exposing
// live counters, histogram snapshots and pprof while a run is in flight.
//
// The Collector attaches to a core.Simulator through the core.Probe
// interface; a simulator with no probe attached pays nothing.
package obsv

import (
	"sync"
	"sync/atomic"
	"time"

	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/metrics"
)

// stateEveryDefault is how many operations pass between layer-state
// polls (frontier, map size) when a state function is installed.
const stateEveryDefault = 1024

// Collector is a core.Probe that streams the run into log-bucketed
// histograms — seek distance, fragments per read, modelled read/write
// latency, journal checkpoint (fsync) cost — and progress counters. It
// is safe to Snapshot from another goroutine while the simulation runs:
// counters are atomics and histograms are mutex-guarded.
type Collector struct {
	model disk.TimeModel

	ops    atomic.Int64
	reads  atomic.Int64
	writes atomic.Int64
	seeks  atomic.Int64

	frontier atomic.Int64
	mapSize  atomic.Int64

	stateEvery int64
	stateFn    func() (frontier geom.Sector, mapSize int)
	cleaningFn func() metrics.Cleaning

	mu       sync.Mutex
	cleaning *metrics.Cleaning  // last polled banded-device gauges
	seek     *metrics.Histogram // signed seek distance, sectors
	frags    *metrics.Histogram // fragments per logical read
	readLat  *metrics.Histogram // modelled read attempt latency, µs
	writeLat *metrics.Histogram // modelled write attempt latency, µs
	fsync    *metrics.Histogram // checkpoint wall-clock cost, µs
}

// NewCollector returns a collector using the default 7200 RPM time
// model for latency bucketing.
func NewCollector() *Collector {
	return &Collector{
		model:      disk.DefaultTimeModel(),
		stateEvery: stateEveryDefault,
		seek:       metrics.NewHistogram(),
		frags:      metrics.NewHistogram(),
		readLat:    metrics.NewHistogram(),
		writeLat:   metrics.NewHistogram(),
		fsync:      metrics.NewHistogram(),
	}
}

// SetStateFn installs a function polled every stateEveryDefault
// operations — on the simulation goroutine, so it may touch the layer —
// to refresh the frontier/map-size progress gauges. A typical caller
// passes a closure over stl.LS: Frontier() and Map().Len().
func (c *Collector) SetStateFn(fn func() (frontier geom.Sector, mapSize int)) {
	c.stateFn = fn
}

// SetCleaningFn installs a function polled on the same cadence as
// SetStateFn — on the simulation goroutine, so it may touch the device —
// to refresh the banded device's cache/cleaning gauges. A typical
// caller passes band.Device.Cleaning. The gauges also refresh once at
// end of run, so a final Snapshot always reports the closing totals.
func (c *Collector) SetCleaningFn(fn func() metrics.Cleaning) {
	c.cleaningFn = fn
}

func (c *Collector) pollCleaning() {
	if c.cleaningFn == nil {
		return
	}
	cl := c.cleaningFn()
	c.mu.Lock()
	c.cleaning = &cl
	c.mu.Unlock()
}

// OnOp implements core.Probe.
func (c *Collector) OnOp(ev core.OpEvent) {
	n := c.ops.Add(1)
	if ev.Kind == disk.Read {
		c.reads.Add(1)
		c.mu.Lock()
		c.frags.Observe(int64(len(ev.Fragments)))
		c.mu.Unlock()
	} else {
		c.writes.Add(1)
	}
	if n%c.stateEvery == 0 {
		if c.stateFn != nil {
			frontier, size := c.stateFn()
			c.frontier.Store(frontier)
			c.mapSize.Store(int64(size))
		}
		c.pollCleaning()
	}
}

// ObserveAccess implements core.Probe: it sees every physical I/O the
// device counts, a banded device's cache and cleaning I/O included.
func (c *Collector) ObserveAccess(a disk.Access) {
	lat := int64(c.model.AccessTime(a) / time.Microsecond)
	c.mu.Lock()
	if a.Seeked {
		c.seek.Observe(a.Distance)
	}
	if a.Kind == disk.Read {
		c.readLat.Observe(lat)
	} else {
		c.writeLat.Observe(lat)
	}
	c.mu.Unlock()
	if a.Seeked {
		c.seeks.Add(1)
	}
}

// OnCheckpoint implements core.Probe.
func (c *Collector) OnCheckpoint(d time.Duration) {
	c.mu.Lock()
	c.fsync.Observe(int64(d / time.Microsecond))
	c.mu.Unlock()
}

// OnFinish implements core.Probe.
func (c *Collector) OnFinish() { c.pollCleaning() }

// HistSnapshot is one histogram frozen for reporting: its non-empty
// buckets in ascending value order plus the sample total.
type HistSnapshot struct {
	Name    string
	Unit    string
	Total   int64
	Buckets []metrics.Bucket
}

// CDF returns the snapshot's boundary-exact CDF points.
func (h HistSnapshot) CDF() []metrics.Point {
	return metrics.CDFFromBuckets(h.Buckets, h.Total)
}

// Snapshot is a self-consistent freeze of the collector, JSON-friendly
// for the /metrics endpoint and renderable by internal/report.
type Snapshot struct {
	Ops    int64
	Reads  int64
	Writes int64
	Seeks  int64

	// Frontier and MapSize are the last polled layer state (zero until
	// the first poll or without a state function).
	Frontier int64
	MapSize  int64

	// Cleaning is the banded device's last polled cache/cleaning
	// gauges; nil on the infinite-disk geometry.
	Cleaning *metrics.Cleaning `json:",omitempty"`

	SeekDistance HistSnapshot
	FragsPerRead HistSnapshot
	ReadLatency  HistSnapshot
	WriteLatency HistSnapshot
	JournalFsync HistSnapshot
}

// Snapshot freezes the collector's current state. Safe to call while
// the simulation is running.
func (c *Collector) Snapshot() Snapshot {
	s := Snapshot{
		Ops:      c.ops.Load(),
		Reads:    c.reads.Load(),
		Writes:   c.writes.Load(),
		Seeks:    c.seeks.Load(),
		Frontier: c.frontier.Load(),
		MapSize:  c.mapSize.Load(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s.Cleaning = c.cleaning
	s.SeekDistance = HistSnapshot{Name: "seek_distance", Unit: "sectors", Total: c.seek.Total(), Buckets: c.seek.Buckets()}
	s.FragsPerRead = HistSnapshot{Name: "frags_per_read", Unit: "fragments", Total: c.frags.Total(), Buckets: c.frags.Buckets()}
	s.ReadLatency = HistSnapshot{Name: "read_latency", Unit: "µs", Total: c.readLat.Total(), Buckets: c.readLat.Buckets()}
	s.WriteLatency = HistSnapshot{Name: "write_latency", Unit: "µs", Total: c.writeLat.Total(), Buckets: c.writeLat.Buckets()}
	s.JournalFsync = HistSnapshot{Name: "journal_fsync", Unit: "µs", Total: c.fsync.Total(), Buckets: c.fsync.Buckets()}
	return s
}

// Hists returns the snapshot's histograms in rendering order.
func (s Snapshot) Hists() []HistSnapshot {
	return []HistSnapshot{s.SeekDistance, s.FragsPerRead, s.ReadLatency, s.WriteLatency, s.JournalFsync}
}
