package core

import (
	"context"
	"fmt"

	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/journal"
	"smrseek/internal/metrics"
	"smrseek/internal/stl"
	"smrseek/internal/trace"
)

// Config selects a translation layer and the mechanisms composed with it.
type Config struct {
	// Device, when non-nil, replaces the default infinite-disk model
	// with another geometry (e.g. an internal/band finite banded
	// device). Every layer and mechanism composes with it unchanged; a
	// device reporting cache/cleaning activity (a Cleaner) contributes
	// Stats.Cleaning. Nil selects disk.New(), the paper's model.
	Device disk.Device
	// LogStructured selects the LS layer; false is the NoLS baseline.
	LogStructured bool
	// FrontierStart is where the LS write frontier begins — the paper
	// starts it above the highest LBA in the trace. Ignored for NoLS.
	FrontierStart geom.Sector
	// CustomLayer, when non-nil, replaces the built-in layer entirely
	// (e.g. a gc.Layer with finite-log cleaning).
	// Layers implementing stl.Maintainer get their background I/O played
	// through the disk model after each host operation; layers
	// implementing stl.Amplifier contribute Stats.WAF. Mechanisms
	// compose with custom layers exactly as with LS.
	CustomLayer stl.Layer
	// Defrag enables opportunistic defragmentation when non-nil.
	Defrag *DefragConfig
	// Prefetch enables look-ahead-behind prefetching when non-nil.
	Prefetch *PrefetchConfig
	// Cache enables translation-aware selective caching when non-nil.
	Cache *CacheConfig
	// Journal enables write-ahead journaling of the LS layer's mutations
	// when non-nil (see JournalConfig). Requires the built-in LS layer —
	// either LogStructured or a *stl.LS CustomLayer (e.g. one produced by
	// stl.RecoverDir to continue a recovered run).
	Journal *JournalConfig
}

// translated reports whether the configured layer relocates data (i.e.
// is anything other than the NoLS identity baseline).
func (c Config) translated() bool { return c.LogStructured || c.CustomLayer != nil }

// Cleaner is the optional device capability for geometries that cache
// and clean (internal/band); Stats() folds it into Stats.Cleaning.
type Cleaner interface {
	Cleaning() metrics.Cleaning
}

// namedDevice is the optional device capability naming the geometry
// for configuration labels.
type namedDevice interface {
	ModelName() string
}

// geometrySuffix returns "@<model>" for a named non-default device.
func (c Config) geometrySuffix() string {
	if nd, ok := c.Device.(namedDevice); ok {
		return "@" + nd.ModelName()
	}
	return ""
}

// Name returns a short label for the configuration ("NoLS", "LS",
// "LS+defrag", ...), used in reports and Figure 11 column headers. A
// non-default device geometry appends an "@<model>" suffix.
func (c Config) Name() string {
	if !c.translated() {
		return "NoLS" + c.geometrySuffix()
	}
	n := "LS"
	if c.CustomLayer != nil {
		n = c.CustomLayer.Name()
	}
	if c.Defrag != nil {
		n += "+defrag"
	}
	if c.Prefetch != nil {
		n += "+prefetch"
	}
	if c.Cache != nil {
		n += "+cache"
	}
	if c.Journal != nil {
		n += "+wal"
	}
	return n + c.geometrySuffix()
}

// Validate reports configuration errors. Mechanism configurations are
// checked too, so misconfigured runs (zero-sized caches, negative
// windows) fail fast instead of producing nonsense SAF numbers.
func (c Config) Validate() error {
	if !c.translated() {
		if c.Defrag != nil || c.Prefetch != nil || c.Cache != nil {
			return fmt.Errorf("core: mechanisms require a translating layer")
		}
		if c.Journal != nil {
			return fmt.Errorf("core: journaling requires the log-structured layer")
		}
		return nil
	}
	if c.Journal != nil {
		if err := c.Journal.Validate(); err != nil {
			return err
		}
		if !c.LogStructured {
			if _, ok := c.CustomLayer.(*stl.LS); !ok {
				return fmt.Errorf("core: journaling requires the log-structured layer, not %s", c.CustomLayer.Name())
			}
		}
	}
	if c.LogStructured && c.CustomLayer != nil {
		return fmt.Errorf("core: LogStructured and CustomLayer are mutually exclusive")
	}
	if c.FrontierStart < 0 {
		return fmt.Errorf("core: negative frontier start %d", c.FrontierStart)
	}
	if c.Defrag != nil {
		if err := c.Defrag.Validate(); err != nil {
			return err
		}
	}
	if c.Prefetch != nil {
		if err := c.Prefetch.Validate(); err != nil {
			return err
		}
	}
	if c.Cache != nil {
		if err := c.Cache.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats is the outcome of one simulation run.
type Stats struct {
	Config Config
	// Disk holds the §II seek counters.
	Disk disk.Counters

	// Logical operation counts (one per trace record).
	Reads  int64
	Writes int64

	// FragmentedReads counts reads resolved to 2+ fragments;
	// TotalFragments sums fragments over all reads (a read of k fragments
	// contributes k); MaxFragments is the worst single read.
	FragmentedReads int64
	TotalFragments  int64
	MaxFragments    int

	// Mechanism statistics (zero when the mechanism is disabled).
	CacheHits          int64
	CacheMisses        int64
	CacheInvalidations int64
	PrefetchHits       int64
	DefragWritebacks   int64
	DefragSectors      int64

	// Maintenance statistics (non-zero only for layers that generate
	// background I/O — cleaning, media-cache merges).
	MaintReads   int64
	MaintWrites  int64
	MaintSectors int64
	// WAF is the layer's write amplification factor (1 when the layer
	// does not relocate data on its own).
	WAF float64

	// Durability tallies write-ahead-journal activity (all zero when
	// journaling is disabled).
	Durability metrics.Durability

	// Cleaning tallies the device's persistent-cache and band-cleaning
	// activity (all zero on the infinite model; see internal/band).
	Cleaning metrics.Cleaning
}

// ReadSAF, WriteSAF and TotalSAF are computed against a baseline by the
// Comparison type in compare.go.

// Simulator drives a trace through a translation layer, the configured
// mechanisms and the seek-counting disk model.
type Simulator struct {
	layer      stl.Layer
	ls         *stl.LS        // nil unless the built-in LS layer is used
	maintainer stl.Maintainer // nil unless the layer generates background I/O
	amplifier  stl.Amplifier  // nil unless the layer reports WAF
	dev        disk.Device
	defrag     *Defragmenter
	prefetch   *Prefetcher
	cache      *SelectiveCache
	wal        *journal.Log // nil unless journaling is enabled
	ckptEvery  int64        // checkpoint threshold in journal records
	jerr       error        // sticky journal failure; set => run is over

	stats  Stats
	probes []Probe // observability probes; empty => zero instrumentation cost

	// Per-simulator scratch buffers the layer appends into, so a warm
	// run allocates no slice per operation.
	fragBuf  []stl.Fragment // read resolutions (also backs OpEvent.Fragments)
	writeBuf []stl.Fragment // write and relocation placements
}

// NewSimulator builds a simulator from the configuration. Probes passed
// here receive only this simulator's events — the way to observe one
// simulator among many running concurrently in the same process
// (internal/volume wires each volume's collector this way).
// NewSimulator(cfg) builds an unobserved simulator.
func NewSimulator(cfg Config, probes ...Probe) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{dev: cfg.Device}
	if s.dev == nil {
		s.dev = disk.New()
	}
	switch {
	case cfg.CustomLayer != nil:
		s.layer = cfg.CustomLayer
		// A custom layer that IS the built-in LS (e.g. recovered via
		// stl.RecoverDir) re-enables every LS-specific path, journaling
		// included.
		if ls, ok := cfg.CustomLayer.(*stl.LS); ok {
			s.ls = ls
		}
	case cfg.LogStructured:
		s.ls = stl.NewLS(cfg.FrontierStart)
		s.layer = s.ls
	default:
		s.layer = stl.NewNoLS()
	}
	if m, ok := s.layer.(stl.Maintainer); ok {
		s.maintainer = m
	}
	if a, ok := s.layer.(stl.Amplifier); ok {
		s.amplifier = a
	}
	if cfg.translated() {
		if cfg.Defrag != nil {
			s.defrag = NewDefragmenter(*cfg.Defrag)
		}
		if cfg.Prefetch != nil {
			s.prefetch = NewPrefetcher(*cfg.Prefetch)
		}
		if cfg.Cache != nil {
			s.cache = NewSelectiveCache(*cfg.Cache)
		}
	}
	if cfg.Journal != nil {
		s.wal = cfg.Journal.Log
		s.ckptEvery = cfg.Journal.CheckpointEvery
	}
	for _, p := range probes {
		s.AddProbe(p)
	}
	s.stats.Config = cfg
	return s, nil
}

// Disk exposes the device model so callers can attach observers
// (distance CDFs, windowed series, time accumulators) before Run.
func (s *Simulator) Disk() disk.Device { return s.dev }

// LS returns the log-structured layer, or nil for a NoLS simulator.
func (s *Simulator) LS() *stl.LS { return s.ls }

// Run consumes the whole trace and returns the accumulated statistics.
func (s *Simulator) Run(r trace.Reader) (Stats, error) {
	return s.RunContext(context.Background(), r)
}

// cancelCheckInterval is how many records RunContext processes between
// context polls; small enough that cancellation lands promptly, large
// enough that the poll is invisible in the per-op cost.
const cancelCheckInterval = 64

// RunContext consumes the trace like Run but honours cancellation and
// deadlines: when ctx ends the run stops promptly and ctx.Err() —
// context.Canceled or context.DeadlineExceeded — is returned.
func (s *Simulator) RunContext(ctx context.Context, r trace.Reader) (Stats, error) {
	done := ctx.Done()
	for n := 0; ; n++ {
		if done != nil && n%cancelCheckInterval == 0 {
			select {
			case <-done:
				return Stats{}, ctx.Err()
			default:
			}
		}
		rec, ok := r.Next()
		if !ok {
			break
		}
		s.Step(rec)
		if s.jerr != nil {
			// The journal crashed (or broke): the simulated device lost
			// power. The stats so far describe the pre-crash state the
			// recovery harness compares against.
			s.Finish()
			return s.Stats(), s.jerr
		}
	}
	if err := r.Err(); err != nil {
		return Stats{}, err
	}
	s.Finish()
	return s.Stats(), nil
}

// Stats returns a snapshot of the statistics so far.
func (s *Simulator) Stats() Stats {
	st := s.stats
	st.Disk = s.dev.Counters()
	if s.cache != nil {
		st.CacheHits = s.cache.Hits()
		st.CacheMisses = s.cache.Misses()
		st.CacheInvalidations = s.cache.Invalidations()
	}
	if s.prefetch != nil {
		st.PrefetchHits = s.prefetch.Hits()
	}
	if s.defrag != nil {
		st.DefragWritebacks = s.defrag.Writebacks()
		st.DefragSectors = s.defrag.WrittenBackSectors()
	}
	st.WAF = 1
	if s.amplifier != nil {
		st.WAF = stl.WAF(s.amplifier)
	}
	if s.wal != nil {
		st.Durability.CheckpointAge = s.wal.SinceCheckpoint()
	}
	if cl, ok := s.dev.(Cleaner); ok {
		st.Cleaning = cl.Cleaning()
	}
	return st
}

// Step processes one trace record: Apply, then Commit. After a journal
// crash (JournalErr non-nil) the simulator is inert: the crash froze the
// state the recovery harness will compare against.
func (s *Simulator) Step(rec trace.Record) {
	s.Apply(rec)
	s.Commit()
}

// Apply processes one trace record without flushing its journal records:
// a caller that batches acknowledges none of them before its Commit. It
// returns a read's fragment count, the number of physically-contiguous
// pieces it resolved to; 0 for a write or a skipped record.
func (s *Simulator) Apply(rec trace.Record) (frags int) {
	if rec.Extent.Empty() || s.jerr != nil {
		return 0
	}
	switch rec.Kind {
	case disk.Read:
		frags = s.stepRead(rec)
	case disk.Write:
		s.stepWrite(rec)
	}
	s.drainMaintenance()
	s.maybeCheckpoint()
	return frags
}

// drainMaintenance plays the layer's queued background I/O through the
// disk model; its seeks count like any other, which is exactly the
// cleaning cost the paper's infinite-disk model sets aside.
func (s *Simulator) drainMaintenance() {
	if s.maintainer == nil {
		return
	}
	for _, op := range s.maintainer.PendingMaintenance() {
		s.dev.Do(op.Kind, op.Extent)
		if op.Kind == disk.Read {
			s.stats.MaintReads++
		} else {
			s.stats.MaintWrites++
		}
		s.stats.MaintSectors += op.Extent.Count
	}
}

func (s *Simulator) stepWrite(rec trace.Record) {
	s.stats.Writes++
	s.emitOp(disk.Write, nil)
	if s.wal != nil {
		// Write-ahead: the record is logged before the map mutates. A
		// failed append ends the run with the op unapplied, so the live
		// state stays exactly what replaying the logged records
		// reconstructs.
		if !s.journalAppend(journal.RecWrite, rec.Extent, s.ls.Frontier()) {
			return
		}
	}
	s.writeBuf = s.layer.WriteAppend(s.writeBuf[:0], rec.Extent)
	for _, f := range s.writeBuf {
		s.dev.Do(disk.Write, f.PhysExtent())
	}
	if s.cache != nil {
		s.cache.Invalidate(rec.Extent)
	}
	// The prefetch buffer indexes physical log addresses, which are
	// immutable in LS: no invalidation needed.
}

func (s *Simulator) stepRead(rec trace.Record) int {
	s.stats.Reads++
	s.fragBuf = s.layer.ResolveAppend(s.fragBuf[:0], rec.Extent)
	frags := s.fragBuf
	s.stats.TotalFragments += int64(len(frags))
	if len(frags) > s.stats.MaxFragments {
		s.stats.MaxFragments = len(frags)
	}
	fragmented := len(frags) > 1
	if fragmented {
		s.stats.FragmentedReads++
	}
	s.emitOp(disk.Read, frags)

	for _, f := range frags {
		// Algorithm 3: on fragmented reads, try RAM first.
		if fragmented && s.cache != nil && s.cache.Has(f.Lba) {
			continue // served from cache: no disk access, no seek
		}
		// Algorithm 2: on fragmented reads, try the drive buffer.
		if fragmented && s.prefetch != nil && s.prefetch.Covers(f.PhysExtent()) {
			continue // served from the drive buffer: no seek
		}
		s.dev.Do(disk.Read, f.PhysExtent())
		if fragmented && s.prefetch != nil {
			s.prefetch.Fill(f.PhysExtent())
		}
		if fragmented && s.cache != nil {
			s.cache.Insert(f.Lba)
		}
	}

	// Algorithm 1: write the just-read range back to the log head. The
	// write-back goes through the normal write path so its frontier seek
	// is charged to this variant — the cost the paper warns about. The
	// selective cache is NOT invalidated: the data is unchanged, only its
	// physical placement moved.
	if fragmented && s.defrag != nil {
		if s.defrag.ShouldDefrag(rec.Extent, len(frags)) {
			s.relocate(rec.Extent)
		}
	}
	return len(frags)
}

// relocate rewrites lba contiguously at the log head (a defrag
// write-back). Like a host write it is journaled first and played after:
// a failed append ends the run with the extent map still resolving
// every LBA to its pre-defrag location and no write-back charged.
func (s *Simulator) relocate(lba geom.Extent) {
	if s.wal != nil && !s.journalAppend(journal.RecRelocate, lba, s.ls.Frontier()) {
		return
	}
	s.writeBuf = s.layer.WriteAppend(s.writeBuf[:0], lba)
	for _, f := range s.writeBuf {
		s.dev.Do(disk.Write, f.PhysExtent())
	}
	s.defrag.NoteWriteback(lba.Count)
}
