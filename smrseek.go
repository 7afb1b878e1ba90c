// Package smrseek is a trace-driven simulator for read-seek behaviour of
// log-structured SMR disk translation layers, reproducing "Minimizing
// Read Seeks for SMR Disk" (Hajkazemi, Abdi, Desnoyers — IISWC 2018).
//
// It models the paper's infinite-disk seek accounting, a log-structured
// translation layer with a full extent map, and the paper's three seek
// reduction mechanisms — opportunistic defragmentation, translation-aware
// look-ahead-behind prefetching and translation-aware selective caching —
// plus a catalog of 21 synthetic workloads standing in for the MSR
// Cambridge and CloudPhysics traces the paper evaluates.
//
// Quick start:
//
//	recs := smrseek.MustWorkload("w91").Generate(0.5)
//	cmp, err := smrseek.ComparePaper(recs)
//	// cmp.Variants holds SAF for LS, LS+defrag, LS+prefetch, LS+cache.
//
// The cmd/ directory provides seven executables: smrsim, tracegen,
// traceinfo and experiments on the simulation side, and smrd, smrload and
// smrverify for the block service. The package's Example functions are
// runnable walkthroughs (go test -run '^Example' -v .).
package smrseek

import (
	"context"
	"fmt"
	"io"

	"smrseek/internal/analysis"
	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/experiments"
	"smrseek/internal/geom"
	"smrseek/internal/metrics"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

// Core simulation types, re-exported from the internal engine.
type (
	// Config selects a translation layer and mechanisms for a run.
	Config = core.Config
	// Stats is the outcome of one simulation run.
	Stats = core.Stats
	// Comparison holds baseline stats plus per-variant SAF reports.
	Comparison = core.Comparison
	// Simulator drives records through a configured pipeline.
	Simulator = core.Simulator

	// DefragConfig parameterizes opportunistic defragmentation.
	DefragConfig = core.DefragConfig
	// PrefetchConfig parameterizes look-ahead-behind prefetching.
	PrefetchConfig = core.PrefetchConfig
	// CacheConfig parameterizes translation-aware selective caching.
	CacheConfig = core.CacheConfig

	// JournalConfig attaches a write-ahead journal to a run; set it on
	// Config.Journal to make the translation state durable.
	JournalConfig = core.JournalConfig
	// Durability tallies journal appends, checkpoints and recovery
	// outcomes for a journaled run (Stats.Durability).
	Durability = metrics.Durability

	// Record is one block I/O operation.
	Record = trace.Record
	// Reader yields trace records in temporal order.
	Reader = trace.Reader
	// Preloaded is a trace held in a compact in-memory arena, replayable
	// through many configurations (see PreloadRecords and
	// RunPreloadedContext).
	Preloaded = trace.Preloaded
	// Characteristics is a Table-I style workload summary.
	Characteristics = trace.Characteristics

	// Profile is a synthetic workload description.
	Profile = workload.Profile

	// Extent is a half-open range of 512-byte sectors.
	Extent = geom.Extent

	// Probe receives a run's observability events: logical ops,
	// checkpoints and the end of the run, and, as an observer of the
	// simulator's device, every physical I/O the device counts. Attach
	// implementations via NewSimulator or Simulator.AddProbe
	// (internal/obsv provides a histogram collector).
	Probe = core.Probe
)

// OpKind distinguishes reads from writes in Records.
type OpKind = disk.OpKind

// Operation kinds.
const (
	Read  = disk.Read
	Write = disk.Write
)

// Default mechanism configurations (the paper's evaluation settings).
var (
	// DefaultDefrag defragments any fragmented read on first access.
	DefaultDefrag = core.DefaultDefragConfig
	// DefaultPrefetch uses 256 KB look-ahead and look-behind windows.
	DefaultPrefetch = core.DefaultPrefetchConfig
	// DefaultCache uses the paper's 64 MB selective cache.
	DefaultCache = core.DefaultCacheConfig
)

// NewSimulator builds a simulator for the configuration. Optional
// probes attach to this simulator only.
func NewSimulator(cfg Config, probes ...Probe) (*Simulator, error) {
	return core.NewSimulator(cfg, probes...)
}

// Run simulates the records under the configuration and returns stats.
// LS configurations with FrontierStart == 0 get the frontier placed just
// above the highest LBA in the trace, per the paper's model.
func Run(cfg Config, recs []Record) (Stats, error) {
	if cfg.LogStructured && cfg.FrontierStart == 0 {
		cfg.FrontierStart = trace.MaxLBA(recs)
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return Stats{}, err
	}
	return sim.Run(trace.NewSliceReader(recs))
}

// PreloadRecords builds a Preloaded arena over an in-memory slice,
// clipping capacity slack. The records are shared afterwards and must
// not be mutated.
func PreloadRecords(recs []Record) *Preloaded { return trace.PreloadRecords(recs) }

// RunPreloadedContext simulates a preloaded trace under the
// configuration; a cancelled or expired context stops the simulation and
// returns ctx.Err(). LS configurations with FrontierStart == 0 get the
// frontier placed at the arena's cached MaxLBA — no per-run rescan of
// the records.
func RunPreloadedContext(ctx context.Context, cfg Config, p *Preloaded) (Stats, error) {
	if cfg.LogStructured && cfg.FrontierStart == 0 {
		cfg.FrontierStart = p.MaxLBA()
	}
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return Stats{}, err
	}
	return sim.RunContext(ctx, p.NewReader())
}

// Compare runs the records through the NoLS baseline and each variant,
// reporting per-variant seek amplification factors.
func Compare(recs []Record, variants ...Config) (Comparison, error) {
	return core.CompareContext(context.Background(), recs, variants...)
}

// ComparePaper runs the Figure 11 variant set: LS, LS+defrag,
// LS+prefetch and LS+cache(64 MB).
func ComparePaper(recs []Record) (Comparison, error) {
	return ComparePaperContext(context.Background(), recs)
}

// ComparePaperContext is ComparePaper with cancellation.
func ComparePaperContext(ctx context.Context, recs []Record) (Comparison, error) {
	return core.ComparePaperContext(ctx, recs)
}

// Workloads returns the names of the 21 cataloged synthetic workloads.
func Workloads() []string { return workload.Names() }

// Workload returns the named synthetic workload profile.
func Workload(name string) (Profile, error) { return workload.ByName(name) }

// MustWorkload returns the named profile or panics; intended for
// examples and tests.
func MustWorkload(name string) Profile {
	p, err := workload.ByName(name)
	if err != nil {
		panic(err)
	}
	return p
}

// Characterize computes Table-I style statistics for a record slice.
func Characterize(recs []Record) Characteristics { return trace.Characterize(recs) }

// MisorderedWrites reports the fraction of writes that sequentially
// follow a later write within a 256 KB horizon (Figure 8's metric).
func MisorderedWrites(recs []Record) (misordered, writes int64) {
	res := analysis.MisorderedWrites(recs, 0)
	return res.Misordered, res.Writes
}

// TraceFormat names an on-disk trace encoding.
type TraceFormat string

// Supported trace formats.
const (
	// FormatMSR is the MSR Cambridge CSV format
	// (Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime).
	FormatMSR TraceFormat = "msr"
	// FormatCP is the documented CloudPhysics-style CSV
	// (time_ns,op,lba,sectors).
	FormatCP TraceFormat = "cp"
	// FormatBinary is the compact delta-encoded binary format (about 3x
	// smaller and an order of magnitude faster to parse than CSV).
	FormatBinary TraceFormat = "bin"
)

// OpenTrace parses a trace stream in the given format. For FormatMSR,
// diskFilter selects one disk number (-1 keeps all).
func OpenTrace(r io.Reader, format TraceFormat, diskFilter int) (Reader, error) {
	switch format {
	case FormatMSR:
		return trace.NewMSRReader(r, diskFilter), nil
	case FormatCP:
		return trace.NewCPReader(r), nil
	case FormatBinary:
		return trace.NewBinaryReader(r), nil
	default:
		return nil, fmt.Errorf("smrseek: unknown trace format %q (want %q, %q or %q)", format, FormatMSR, FormatCP, FormatBinary)
	}
}

// WriteTrace writes records in the given format.
func WriteTrace(w io.Writer, format TraceFormat, recs []Record) error {
	switch format {
	case FormatMSR:
		return trace.WriteMSR(w, "smrseek", 0, recs)
	case FormatCP:
		return trace.WriteCP(w, recs)
	case FormatBinary:
		return trace.WriteBinary(w, recs)
	default:
		return fmt.Errorf("smrseek: unknown trace format %q (want %q, %q or %q)", format, FormatMSR, FormatCP, FormatBinary)
	}
}

// ReadAll drains a Reader into memory.
func ReadAll(r Reader) ([]Record, error) { return trace.ReadAll(r) }

// RunExperimentContext regenerates a paper table or figure by name
// ("table1", "fig2" ... "fig11", or "all"), writing its rendering to w.
// Scale multiplies each workload's base operation count (0 uses the
// default). A cancelled or expired context stops the experiment and
// returns ctx.Err().
func RunExperimentContext(ctx context.Context, w io.Writer, name string, scale float64) error {
	if scale <= 0 {
		scale = experiments.DefaultScale
	}
	return experiments.RunContext(ctx, w, name, scale)
}
