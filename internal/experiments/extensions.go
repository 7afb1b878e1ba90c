package experiments

// Extension experiments beyond the paper's figures: the §II translation
// layer trade-off quantified (read seeks vs write amplification across
// STL designs), and seek-time-weighted amplification under the drive
// time model.

import (
	"context"
	"fmt"
	"io"

	"smrseek/internal/band"
	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/gc"
	"smrseek/internal/metrics"
	"smrseek/internal/report"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

// WAFProfiles are rewrite-intensity patterns for the translation-layer
// trade-off table. The catalog workloads barely overwrite (their rewrite
// ratio is ≈1.0, so a cleaner never needs to run — the paper's archival
// argument in action); these three expose the cleaning regime:
//
//   - oltp:   4 KB updates hammering a 64 MB footprint (≈4x rewrite)
//   - mixed:  updates plus repeated scans over a 128 MB footprint
//   - append: mostly-unique writes over 2 GB (≈1x rewrite, archival-like)
func WAFProfiles() []workload.Profile {
	return []workload.Profile{
		{
			Name: "oltp", Source: workload.CloudPhysics, OS: "synthetic", Seed: 0xC001,
			BaseOps: 60000, WriteFrac: 0.70,
			RegionSectors: 32 << 10, WriteSectors: 8, ReadSectors: 64,
			HotRanges: 30, HotRangeSectors: 256, HotReadFrac: 0.40, HotZipf: 1.1,
			UpdateFrac: 0.20, UpdateSectors: 8, UpdateHotBias: 0.7,
		},
		{
			Name: "mixed", Source: workload.CloudPhysics, OS: "synthetic", Seed: 0xC002,
			BaseOps: 50000, WriteFrac: 0.50,
			RegionSectors: 256 << 10, WriteSectors: 32, ReadSectors: 48,
			HotRanges: 40, HotRangeSectors: 256, HotReadFrac: 0.25, HotZipf: 1.1,
			UpdateFrac: 0.15, UpdateSectors: 8, UpdateHotBias: 0.5,
			ScanFrac: 0.35, ScanChunk: 256, ScanSpanSectors: 32 << 10, ScanRepeat: true,
		},
		{
			Name: "append", Source: workload.CloudPhysics, OS: "synthetic", Seed: 0xC003,
			BaseOps: 40000, WriteFrac: 0.80,
			RegionSectors: 4 << 21, WriteSectors: 64, ReadSectors: 64,
			HotRanges: 20, HotRangeSectors: 256, HotReadFrac: 0.20, HotZipf: 1.0,
			UpdateFrac: 0.05, UpdateSectors: 8, UpdateHotBias: 0.7,
			TemporalFrac: 0.30,
		},
	}
}

// WAF prints the §II trade-off: read/total SAF and write amplification
// for the infinite log-structured layer, the finite cleaning layer under
// both victim policies, and the media cache shipped drives use, modelled
// by the banded device.
func WAF(ctx context.Context, w io.Writer, scale float64) error {
	tb := report.NewTable("Extension: translation-layer trade-off (read seeks vs write amplification)",
		"workload", "layer", "read SAF", "total SAF", "WAF", "maint GB")
	for _, p := range WAFProfiles() {
		pl := preloaded(p, scale)
		recs, frontier := pl.Records(), pl.MaxLBA()

		base, err := runWith(ctx, core.Config{}, recs)
		if err != nil {
			return err
		}

		// Log sized to ~1.1x the unique write footprint (the live-data
		// upper bound) — tight over-provisioning like a real device's,
		// so rewrite traffic forces the cleaner to run. 1 MiB segments.
		const segSectors = int64(2048)
		footprint := trace.WriteFootprint(recs)
		logSectors := ((footprint*11/10)/segSectors + 4) * segSectors

		layers := []struct {
			label string
			cfg   func() (core.Config, error)
		}{
			{"LS (infinite)", func() (core.Config, error) {
				return core.Config{LogStructured: true, FrontierStart: frontier}, nil
			}},
			{"SegLS greedy", func() (core.Config, error) {
				l, err := gc.New(gc.Config{DeviceSectors: frontier, LogSectors: logSectors, SegmentSectors: segSectors, Policy: gc.Greedy})
				return core.Config{CustomLayer: l}, err
			}},
			{"SegLS cost-benefit", func() (core.Config, error) {
				l, err := gc.New(gc.Config{DeviceSectors: frontier, LogSectors: logSectors, SegmentSectors: segSectors, Policy: gc.CostBenefit})
				return core.Config{CustomLayer: l}, err
			}},
			{"MediaCache", func() (core.Config, error) {
				// The media cache shipped drives use, as a banded device
				// under PolA: 4 MiB bands and a 32 MiB cache in one unit,
				// so the cache is a single log.
				const bandSectors = 8192
				d, err := band.New(band.Config{BandSectors: bandSectors, CacheSectors: 8 * bandSectors, UnitSectors: 8 * bandSectors})
				return core.Config{Device: d}, err
			}},
		}
		for _, lay := range layers {
			cfg, err := lay.cfg()
			if err != nil {
				return fmt.Errorf("%s/%s: %w", p.Name, lay.label, err)
			}
			st, err := runWith(ctx, cfg, recs)
			if err != nil {
				return err
			}
			// A layer reports its own amplification and maintenance I/O;
			// a device reports its cleaning.
			waf, maint := st.WAF, st.MaintSectors
			if cfg.Device != nil {
				waf, maint = st.Cleaning.WriteAmp(), st.Cleaning.CleanReadSectors+st.Cleaning.CleanWriteSectors
			}
			tb.AddRow(p.Name, lay.label,
				metrics.SAF(st.Disk.ReadSeeks, base.Disk.ReadSeeks),
				metrics.SAF(st.Disk.TotalSeeks(), base.Disk.TotalSeeks()),
				waf,
				float64(maint)*512/1e9)
		}
	}
	return tb.Render(w)
}

// Cleaning prints the finite-disk extension table: the rewrite-heavy
// WAF workloads on the banded device under each persistent-cache
// placement policy, with the cache sized to ~10% of the write footprint
// so the cleaning regime is reached. Read seeks rise with cache
// redirection (fragments live far from the band), and the cleaner's
// read-modify-write traffic shows up as write amplification and stalls
// — the finite-disk costs the paper's infinite model excludes.
func Cleaning(ctx context.Context, w io.Writer, scale float64) error {
	tb := report.NewTable("Extension: banded device — placement policy vs write amplification and cleaning stalls",
		"workload", "policy", "read SAF", "total SAF", "write amp", "bands cleaned", "stalls")
	for _, p := range WAFProfiles() {
		pl := preloaded(p, scale)
		recs := pl.Records()
		base, err := runWith(ctx, core.Config{}, recs)
		if err != nil {
			return err
		}
		const bandSectors = int64(2048)
		footprint := trace.WriteFootprint(recs)
		cacheSectors := ((footprint/10)/bandSectors + 1) * bandSectors
		for _, pol := range []band.Policy{band.PolA, band.PolB, band.Shelter} {
			dev, err := band.New(band.Config{
				BandSectors:  bandSectors,
				CacheSectors: cacheSectors,
				UnitSectors:  2 * bandSectors,
				Policy:       pol,
			})
			if err != nil {
				return fmt.Errorf("%s/%v: %w", p.Name, pol, err)
			}
			st, err := runWith(ctx, core.Config{Device: dev}, recs)
			if err != nil {
				return err
			}
			c := st.Cleaning
			tb.AddRow(p.Name, pol.String(),
				metrics.SAF(st.Disk.ReadSeeks, base.Disk.ReadSeeks),
				metrics.SAF(st.Disk.TotalSeeks(), base.Disk.TotalSeeks()),
				c.WriteAmp(),
				report.HumanCount(c.BandsCleaned),
				report.HumanCount(c.Stalls))
		}
	}
	return tb.Render(w)
}

// TimeAmpWorkloads are the traces used for the time-weighted table.
var TimeAmpWorkloads = []string{"usr_1", "hm_1", "w91", "w20", "usr_0"}

// TimeAmp prints seek-time-weighted amplification: modelled service time
// under each Figure 11 variant divided by the NoLS baseline, using the
// 7200 RPM drive time model. Seek counts weight short and long seeks
// equally; this view does not (§III's cost discussion).
func TimeAmp(ctx context.Context, w io.Writer, scale float64) error {
	tb := report.NewTable("Extension: modelled service-time amplification (7200 RPM model)",
		"workload", "variant", "seek count SAF", "time amplification")
	model := disk.DefaultTimeModel()
	for _, name := range TimeAmpWorkloads {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		pl := preloaded(p, scale)
		recs, frontier := pl.Records(), pl.MaxLBA()
		baseStats, baseTime, err := timedRun(ctx, core.Config{}, recs, model)
		if err != nil {
			return err
		}
		for _, cfg := range core.PaperVariants() {
			cfg.FrontierStart = frontier
			st, tm, err := timedRun(ctx, cfg, recs, model)
			if err != nil {
				return err
			}
			tb.AddRow(name, cfg.Name(),
				metrics.SAF(st.Disk.TotalSeeks(), baseStats.Disk.TotalSeeks()),
				float64(tm)/float64(baseTime))
		}
	}
	return tb.Render(w)
}

func runWith(ctx context.Context, cfg core.Config, recs []trace.Record) (core.Stats, error) {
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return core.Stats{}, err
	}
	return sim.RunContext(ctx, trace.NewSliceReader(recs))
}

func timedRun(ctx context.Context, cfg core.Config, recs []trace.Record, model disk.TimeModel) (core.Stats, int64, error) {
	sim, err := core.NewSimulator(cfg)
	if err != nil {
		return core.Stats{}, 0, err
	}
	acc := disk.NewTimeAccumulator(model)
	sim.Disk().AddObserver(acc)
	st, err := sim.RunContext(ctx, trace.NewSliceReader(recs))
	if err != nil {
		return core.Stats{}, 0, err
	}
	return st, int64(acc.Total()), nil
}
