package workload

import (
	"fmt"
	"sort"
)

// Sector-count helpers for profile literals.
const (
	// MBs is one megabyte in sectors.
	MBs = int64(1) << 11
	// GBs is one gigabyte in sectors.
	GBs = int64(1) << 21
)

// Catalog returns the 21 named workload profiles — 9 standing in for the
// paper's MSR Cambridge traces and 12 for its CloudPhysics traces. Base
// operation counts are the paper's Table I counts divided by ~100 (capped
// for the two largest traces) so the full Figure 11 sweep runs in
// seconds; the knobs are tuned so each workload reproduces the
// qualitative behaviour the paper reports for its namesake (see
// EXPERIMENTS.md for paper-vs-measured values).
func Catalog() []Profile {
	return []Profile{
		// ------------------------- MSR traces -------------------------
		// usr_0: write-intensive home-directory volume. Log-friendly:
		// overall SAF < 1 (Figure 11a).
		{
			Name: "usr_0", Source: MSR, OS: "Microsoft Windows", Seed: 0xA001,
			BaseOps: 22000, WriteFrac: 0.60,
			RegionSectors: 2 * GBs, WriteSectors: 20, ReadSectors: 24,
			HotRanges: 40, HotRangeSectors: 256, HotReadFrac: 0.10, HotZipf: 1.1,
			UpdateFrac: 0.03, UpdateSectors: 8, UpdateHotBias: 0.7,
			ScanFrac: 0.05, ScanChunk: 256, ScanSpanSectors: 16 * MBs, ScanRepeat: true,
			TemporalFrac: 0.50,
			MisorderFrac: 0.008, MisorderChunks: 8, MisorderChunk: 16, MisorderPattern: Shuffled,
		},
		// usr_1: the largest MSR trace; read-intensive with a fragment
		// working set far beyond 64 MB, so selective caching is one of
		// the two workloads it does NOT win (Figure 11a); SAF > 1.
		{
			Name: "usr_1", Source: MSR, OS: "Microsoft Windows", Seed: 0xA002,
			BaseOps: 160000, WriteFrac: 0.085,
			RegionSectors: 8 * GBs, WriteSectors: 30, ReadSectors: 30,
			HotRanges: 1500, HotRangeSectors: 512, HotReadFrac: 0.30, HotZipf: 0.5,
			UpdateFrac: 0.60, UpdateSectors: 8, UpdateHotBias: 0.7,
			ScanFrac: 0.45, ScanChunk: 256, ScanSpanSectors: 64 * MBs, ScanRepeat: false,
			TemporalFrac: 0.05,
			Phases:       8,
		},
		// src2_2: very write-intensive source-control volume with the
		// highest mis-ordered write share (~1 in 20, Figure 8); SAF < 1,
		// and opportunistic defrag makes it slightly worse (Figure 11a):
		// its fragmented reads are one-shot scans, so write-backs never
		// pay off.
		{
			Name: "src2_2", Source: MSR, OS: "Microsoft Windows", Seed: 0xA003,
			BaseOps: 11600, WriteFrac: 0.70,
			RegionSectors: 2 * GBs, WriteSectors: 100, ReadSectors: 48,
			HotRanges: 8, HotRangeSectors: 256, HotReadFrac: 0.02, HotZipf: 0.8,
			UpdateFrac: 0.22, UpdateSectors: 16, UpdateHotBias: 0.05,
			ScanFrac: 0.35, ScanChunk: 512, ScanSpanSectors: 24 * MBs, ScanRepeat: false,
			TemporalFrac:    0.15,
			OverlapReadFrac: 0.18,
			MisorderFrac:    0.012, MisorderChunks: 12, MisorderChunk: 16, MisorderPattern: Interleaved,
		},
		// hm_1: hardware-monitor volume; read-dominant with the paper's
		// flagship descending write runs (Figure 7a) and strong fragment
		// reuse (Figures 5, 10); SAF > 1.
		{
			Name: "hm_1", Source: MSR, OS: "Microsoft Windows", Seed: 0xA004,
			BaseOps: 6100, WriteFrac: 0.05,
			RegionSectors: 1 * GBs, WriteSectors: 40, ReadSectors: 40,
			HotRanges: 60, HotRangeSectors: 384, HotReadFrac: 0.45, HotZipf: 1.2,
			UpdateFrac: 0.45, UpdateSectors: 8, UpdateHotBias: 0.7,
			ScanFrac: 0.25, ScanChunk: 256, ScanSpanSectors: 12 * MBs, ScanRepeat: true,
			MisorderFrac: 0.004, MisorderChunks: 24, MisorderChunk: 16, MisorderPattern: Descending,
		},
		// web_0: write-intensive web/SQL server; SAF < 1.
		{
			Name: "web_0", Source: MSR, OS: "Microsoft Windows", Seed: 0xA005,
			BaseOps: 20000, WriteFrac: 0.70,
			RegionSectors: 2 * GBs, WriteSectors: 17, ReadSectors: 24,
			HotRanges: 50, HotRangeSectors: 256, HotReadFrac: 0.15, HotZipf: 1.1,
			UpdateFrac: 0.02, UpdateSectors: 8, UpdateHotBias: 0.7,
			ScanFrac: 0.05, ScanChunk: 256, ScanSpanSectors: 8 * MBs, ScanRepeat: true,
			TemporalFrac: 0.50,
		},
		// wdev_0: test web server, write-intensive; the paper's example
		// of a modest read-seek increase but net seek reduction (Fig. 2).
		{
			Name: "wdev_0", Source: MSR, OS: "Microsoft Windows", Seed: 0xA006,
			BaseOps: 11400, WriteFrac: 0.80,
			RegionSectors: 1 * GBs, WriteSectors: 16, ReadSectors: 16,
			HotRanges: 30, HotRangeSectors: 256, HotReadFrac: 0.20, HotZipf: 1.0,
			UpdateFrac: 0.06, UpdateSectors: 8, UpdateHotBias: 0.7,
			TemporalFrac: 0.40,
		},
		// mds_0: media server, write-intensive; SAF < 1.
		{
			Name: "mds_0", Source: MSR, OS: "Microsoft Windows", Seed: 0xA007,
			BaseOps: 12100, WriteFrac: 0.88,
			RegionSectors: 2 * GBs, WriteSectors: 14, ReadSectors: 20,
			HotRanges: 20, HotRangeSectors: 256, HotReadFrac: 0.15, HotZipf: 1.0,
			UpdateFrac: 0.10, UpdateSectors: 8, UpdateHotBias: 0.7,
			TemporalFrac: 0.35,
		},
		// rsrch_0: research-projects volume, write-intensive; SAF < 1.
		{
			Name: "rsrch_0", Source: MSR, OS: "Microsoft Windows", Seed: 0xA008,
			BaseOps: 14300, WriteFrac: 0.91,
			RegionSectors: 1 * GBs, WriteSectors: 17, ReadSectors: 16,
			HotRanges: 20, HotRangeSectors: 256, HotReadFrac: 0.20, HotZipf: 1.0,
			UpdateFrac: 0.12, UpdateSectors: 8, UpdateHotBias: 0.7,
			TemporalFrac: 0.30,
		},
		// ts_0: terminal server, write-intensive; SAF < 1.
		{
			Name: "ts_0", Source: MSR, OS: "Microsoft Windows", Seed: 0xA009,
			BaseOps: 18000, WriteFrac: 0.82,
			RegionSectors: 1 * GBs, WriteSectors: 16, ReadSectors: 16,
			HotRanges: 25, HotRangeSectors: 256, HotReadFrac: 0.15, HotZipf: 1.0,
			UpdateFrac: 0.06, UpdateSectors: 8, UpdateHotBias: 0.7,
			TemporalFrac: 0.40,
		},

		// --------------------- CloudPhysics traces --------------------
		// w20: the biggest CloudPhysics trace, and the paper's example of
		// opportunistic defrag *backfiring* (SAF worsened ~2.8x, §V).
		// Random-boundary overlapping reads over a lightly fragmented
		// span mean each defrag write-back re-fragments its neighbours
		// (the Figure 6 t_F effect) and the churn never converges, while
		// plain LS stays near the seeding level and a small hot set keeps
		// selective caching useful.
		{
			Name: "w20", Source: CloudPhysics, OS: "Microsoft Windows Server 2003", Seed: 0xB020,
			BaseOps: 180000, WriteFrac: 0.34,
			RegionSectors: 8 * GBs, WriteSectors: 68, ReadSectors: 48,
			HotRanges: 25, HotRangeSectors: 256, HotReadFrac: 0.06, HotZipf: 1.2,
			UpdateFrac: 0.03, UpdateSectors: 8, UpdateHotBias: 0.1,
			ScanSpanSectors: 24 * MBs,
			OverlapReadFrac: 0.60,
			Phases:          6,
		},
		// w33: balanced read/write with diurnal phases (Figure 3-style
		// swings); prefetch gains are marginal (Figure 11b).
		{
			Name: "w33", Source: CloudPhysics, OS: "Red Hat Enterprise Linux 5", Seed: 0xB033,
			BaseOps: 120000, WriteFrac: 0.51,
			RegionSectors: 4 * GBs, WriteSectors: 62, ReadSectors: 32,
			HotRanges: 80, HotRangeSectors: 384, HotReadFrac: 0.15, HotZipf: 1.1,
			UpdateFrac: 0.02, UpdateSectors: 8, UpdateHotBias: 0.7,
			ScanFrac: 0.10, ScanChunk: 256, ScanSpanSectors: 16 * MBs, ScanRepeat: true,
			TemporalFrac: 0.10,
			Phases:       8,
		},
		// w36: extremely write-intensive (Table I: 18.8M writes vs 113K
		// reads); the few reads hit a tiny, highly skewed hot set
		// (Figure 5's extreme skew). Net seek reduction under LS.
		{
			Name: "w36", Source: CloudPhysics, OS: "Red Hat Enterprise Linux 5", Seed: 0xB036,
			BaseOps: 150000, WriteFrac: 0.95,
			RegionSectors: 4 * GBs, WriteSectors: 283, ReadSectors: 64,
			HotRanges: 12, HotRangeSectors: 512, HotReadFrac: 0.60, HotZipf: 1.4,
			UpdateFrac: 0.003, UpdateSectors: 8, UpdateHotBias: 0.7,
			TemporalFrac: 0.25,
		},
		// w55: read-intensive with strong reuse; seek amplification is
		// significant but not overwhelming, with visible temporal bursts
		// (Figure 3d); prefetch marginal, caching strong.
		{
			Name: "w55", Source: CloudPhysics, OS: "Microsoft Windows Server 2008 R2", Seed: 0xB055,
			BaseOps: 88000, WriteFrac: 0.12,
			RegionSectors: 4 * GBs, WriteSectors: 36, ReadSectors: 24,
			HotRanges: 100, HotRangeSectors: 384, HotReadFrac: 0.35, HotZipf: 1.15,
			UpdateFrac: 0.02, UpdateSectors: 8, UpdateHotBias: 0.7,
			ScanFrac: 0.10, ScanChunk: 256, ScanSpanSectors: 16 * MBs, ScanRepeat: true,
			Phases: 6,
		},
		// w64: read-intensive; SAF > 1, caching effective.
		{
			Name: "w64", Source: CloudPhysics, OS: "Microsoft Windows Server 2008 R2", Seed: 0xB064,
			BaseOps: 75000, WriteFrac: 0.14,
			RegionSectors: 4 * GBs, WriteSectors: 75, ReadSectors: 60,
			HotRanges: 90, HotRangeSectors: 384, HotReadFrac: 0.30, HotZipf: 1.1,
			UpdateFrac: 0.03, UpdateSectors: 8, UpdateHotBias: 0.7,
			ScanFrac: 0.20, ScanChunk: 256, ScanSpanSectors: 20 * MBs, ScanRepeat: true,
		},
		// w76: very write-intensive; log-friendly (SAF < 1).
		{
			Name: "w76", Source: CloudPhysics, OS: "Microsoft Windows Server 2008 R2", Seed: 0xB076,
			BaseOps: 61000, WriteFrac: 0.95,
			RegionSectors: 2 * GBs, WriteSectors: 71, ReadSectors: 32,
			HotRanges: 20, HotRangeSectors: 256, HotReadFrac: 0.25, HotZipf: 1.0,
			UpdateFrac: 0.08, UpdateSectors: 8, UpdateHotBias: 0.7,
			TemporalFrac: 0.35,
		},
		// w84: write-heavy but with mis-ordered bursts feeding repeated
		// scans — the showcase for look-ahead-behind prefetching (up to
		// 3.7x SAF improvement, §V).
		{
			Name: "w84", Source: CloudPhysics, OS: "Red Hat Enterprise Linux 5", Seed: 0xB084,
			BaseOps: 48000, WriteFrac: 0.86,
			RegionSectors: 2 * GBs, WriteSectors: 62, ReadSectors: 32,
			HotRanges: 20, HotRangeSectors: 256, HotReadFrac: 0.10, HotZipf: 1.0,
			UpdateFrac: 0.03, UpdateSectors: 8, UpdateHotBias: 0.5,
			ScanFrac: 0.70, ScanChunk: 256, ScanSpanSectors: 16 * MBs, ScanRepeat: true,
			MisorderFrac: 0.0025, MisorderChunks: 16, MisorderChunk: 16, MisorderPattern: Descending,
		},
		// w89: balanced; moderate amplification, all mechanisms help.
		{
			Name: "w89", Source: CloudPhysics, OS: "Microsoft Windows Server 2008 R2", Seed: 0xB089,
			BaseOps: 36000, WriteFrac: 0.58,
			RegionSectors: 4 * GBs, WriteSectors: 63, ReadSectors: 32,
			HotRanges: 60, HotRangeSectors: 256, HotReadFrac: 0.20, HotZipf: 1.1,
			UpdateFrac: 0.03, UpdateSectors: 8, UpdateHotBias: 0.7,
			ScanFrac: 0.15, ScanChunk: 256, ScanSpanSectors: 12 * MBs, ScanRepeat: true,
			TemporalFrac: 0.10,
		},
		// w91: the paper's worst case — SAF ≈ 3.7 under LS, repaired to
		// ≈ 0.2 by 64 MB selective caching (18x) and substantially by
		// prefetching (mis-ordered bursts) and defrag (repeated scans).
		{
			Name: "w91", Source: CloudPhysics, OS: "Microsoft Windows Server 2003", Seed: 0xB091,
			BaseOps: 43000, WriteFrac: 0.27,
			RegionSectors: 2 * GBs, WriteSectors: 34, ReadSectors: 24,
			HotRanges: 40, HotRangeSectors: 384, HotReadFrac: 0.22, HotZipf: 1.2,
			UpdateFrac: 0.09, UpdateSectors: 8, UpdateHotBias: 0.7,
			ScanFrac: 0.65, ScanChunk: 256, ScanSpanSectors: 24 * MBs, ScanRepeat: true,
			MisorderFrac: 0.006, MisorderChunks: 16, MisorderChunk: 16, MisorderPattern: Descending,
		},
		// w93: read-intensive with roaming scan-once reads: like w20,
		// defragmentation hurts (Figure 11b).
		{
			Name: "w93", Source: CloudPhysics, OS: "Microsoft Windows Server 2003", Seed: 0xB093,
			BaseOps: 33000, WriteFrac: 0.13,
			RegionSectors: 4 * GBs, WriteSectors: 57, ReadSectors: 40,
			HotRanges: 10, HotRangeSectors: 256, HotReadFrac: 0.03, HotZipf: 1.1,
			UpdateFrac: 0.03, UpdateSectors: 8, UpdateHotBias: 0.3,
			ScanFrac: 0.10, ScanChunk: 256, ScanSpanSectors: 16 * MBs, ScanRepeat: true,
			OverlapReadFrac: 0.45,
		},
		// w95: mis-ordered bursts + repeated scans: prefetching shines.
		{
			Name: "w95", Source: CloudPhysics, OS: "Microsoft Windows Server 2008", Seed: 0xB095,
			BaseOps: 39000, WriteFrac: 0.68,
			RegionSectors: 2 * GBs, WriteSectors: 21, ReadSectors: 24,
			HotRanges: 30, HotRangeSectors: 256, HotReadFrac: 0.10, HotZipf: 1.0,
			UpdateFrac: 0.04, UpdateSectors: 8, UpdateHotBias: 0.5,
			ScanFrac: 0.70, ScanChunk: 256, ScanSpanSectors: 16 * MBs, ScanRepeat: true,
			MisorderFrac: 0.0025, MisorderChunks: 16, MisorderChunk: 16, MisorderPattern: Interleaved,
		},
		// w106: write-intensive with the ~1-in-25 small-scale shuffled
		// mis-ordering of Figure 7b / Figure 8.
		{
			Name: "w106", Source: CloudPhysics, OS: "Microsoft Windows Server 2003 Standard", Seed: 0xB106,
			BaseOps: 33000, WriteFrac: 0.82,
			RegionSectors: 2 * GBs, WriteSectors: 42, ReadSectors: 24,
			HotRanges: 40, HotRangeSectors: 256, HotReadFrac: 0.25, HotZipf: 1.1,
			UpdateFrac: 0.05, UpdateSectors: 8, UpdateHotBias: 0.7,
			ScanFrac: 0.15, ScanChunk: 256, ScanSpanSectors: 8 * MBs, ScanRepeat: true,
			TemporalFrac: 0.20,
			MisorderFrac: 0.009, MisorderChunks: 10, MisorderChunk: 8, MisorderPattern: Shuffled,
		},
	}
}

// ByName returns the named profile from the catalog.
func ByName(name string) (Profile, error) {
	for _, p := range Catalog() {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown workload %q (try Names())", name)
}

// Names returns every catalog workload name, MSR first then CloudPhysics,
// each group alphabetical.
func Names() []string {
	var msr, cp []string
	for _, p := range Catalog() {
		if p.Source == MSR {
			msr = append(msr, p.Name)
		} else {
			cp = append(cp, p.Name)
		}
	}
	sort.Strings(msr)
	sort.Strings(cp)
	return append(msr, cp...)
}
