package core

import (
	"context"

	"smrseek/internal/geom"
	"smrseek/internal/metrics"
	"smrseek/internal/trace"
)

// SAFReport holds the seek amplification factors of one variant against
// the NoLS baseline (Figure 11's bars).
type SAFReport struct {
	Name  string
	Read  float64
	Write float64
	Total float64
	Stats Stats
}

// Comparison is the outcome of running a workload through the baseline
// and a set of log-structured variants.
type Comparison struct {
	Baseline Stats
	Variants []SAFReport
}

// VariantByName returns the report with the given name.
func (c Comparison) VariantByName(name string) (SAFReport, bool) {
	for _, v := range c.Variants {
		if v.Name == name {
			return v, true
		}
	}
	return SAFReport{}, false
}

// CompareContext runs the records through the NoLS baseline and each
// variant configuration, returning SAF per variant. Variants without a
// custom layer use the built-in LS layer with the frontier forced to
// start above the highest LBA in the trace, per the paper; variants
// carrying a CustomLayer are compared as-is. A cancelled or expired
// context stops the current run and returns ctx.Err().
func CompareContext(ctx context.Context, recs []trace.Record, variants ...Config) (Comparison, error) {
	frontier := trace.MaxLBA(recs)
	base, err := runOnce(ctx, recs, Config{LogStructured: false})
	if err != nil {
		return Comparison{}, err
	}
	out := Comparison{Baseline: base}
	for _, cfg := range variants {
		if cfg.CustomLayer == nil {
			cfg.LogStructured = true
			cfg.FrontierStart = frontier
		}
		st, err := runOnce(ctx, recs, cfg)
		if err != nil {
			return Comparison{}, err
		}
		out.Variants = append(out.Variants, SAFReport{
			Name:  st.Config.Name(),
			Read:  metrics.SAF(st.Disk.ReadSeeks, base.Disk.ReadSeeks),
			Write: metrics.SAF(st.Disk.WriteSeeks, base.Disk.WriteSeeks),
			Total: metrics.SAF(st.Disk.TotalSeeks(), base.Disk.TotalSeeks()),
			Stats: st,
		})
	}
	return out, nil
}

func runOnce(ctx context.Context, recs []trace.Record, cfg Config) (Stats, error) {
	sim, err := NewSimulator(cfg)
	if err != nil {
		return Stats{}, err
	}
	return sim.RunContext(ctx, trace.NewSliceReader(recs))
}

// PaperVariants returns the four configurations of Figure 11: plain LS,
// LS + opportunistic defragmentation, LS + look-ahead-behind prefetching,
// and LS + 64 MB selective caching.
func PaperVariants() []Config {
	defrag := DefaultDefragConfig()
	prefetch := DefaultPrefetchConfig()
	cache := DefaultCacheConfig()
	return []Config{
		{LogStructured: true},
		{LogStructured: true, Defrag: &defrag},
		{LogStructured: true, Prefetch: &prefetch},
		{LogStructured: true, Cache: &cache},
	}
}

// ComparePaperContext runs the records through exactly the Figure 11
// variant set.
func ComparePaperContext(ctx context.Context, recs []trace.Record) (Comparison, error) {
	return CompareContext(ctx, recs, PaperVariants()...)
}

// FrontierFor returns the write frontier the paper's model would use for
// this workload: just above the highest LBA it touches.
func FrontierFor(recs []trace.Record) geom.Sector { return trace.MaxLBA(recs) }
