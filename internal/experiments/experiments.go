// Package experiments regenerates every table and figure of the paper's
// evaluation from the synthetic workload catalog. Each function writes a
// textual rendering (table, bars or series) to the given writer; the
// cmd/experiments binary and the repository benchmarks are thin wrappers
// around these.
package experiments

import (
	"context"
	"fmt"
	"io"
	"sort"

	"smrseek/internal/analysis"
	"smrseek/internal/core"
	"smrseek/internal/disk"
	"smrseek/internal/geom"
	"smrseek/internal/metrics"
	"smrseek/internal/report"
	"smrseek/internal/trace"
	"smrseek/internal/workload"
)

// DefaultScale is the workload scale experiments run at: each named
// workload emits roughly BaseOps/2 operations, keeping a full Figure 11
// sweep in the tens of seconds.
const DefaultScale = 0.5

// Table1 prints workload characteristics for every catalog workload —
// the paper's Table I, computed over the synthetic stand-ins.
func Table1(ctx context.Context, w io.Writer, scale float64) error {
	tb := report.NewTable("Table I: workload characteristics (synthetic stand-ins)",
		"workload", "source", "reads", "writes", "read GB", "written GB", "mean write KB", "OS (guest)")
	for _, p := range catalogOrdered() {
		recs := preloaded(p, scale).Records()
		c := trace.Characterize(recs)
		tb.AddRow(p.Name, p.Source.String(),
			report.HumanCount(c.ReadCount), report.HumanCount(c.WriteCount),
			c.ReadGB(), c.WrittenGB(), c.MeanWriteKB, p.OS)
	}
	return tb.Render(w)
}

// Fig2Row is one workload's Figure 2 bar pair.
type Fig2Row struct {
	Name                          string
	Source                        workload.Source
	NoLSReadSeeks, NoLSWriteSeeks int64
	LSReadSeeks, LSWriteSeeks     int64
}

// Fig2Data computes read/write seek counts under NoLS and LS for every
// catalog workload.
func Fig2Data(ctx context.Context, scale float64) ([]Fig2Row, error) {
	cat := catalogOrdered()
	rows := make([]Fig2Row, len(cat))
	err := forEachIndexed(ctx, len(cat), func(ctx context.Context, i int) error {
		p := cat[i]
		recs := preloaded(p, scale).Records()
		cmp, err := core.CompareContext(ctx, recs, core.Config{LogStructured: true})
		if err != nil {
			return err
		}
		ls := cmp.Variants[0].Stats
		rows[i] = Fig2Row{
			Name:           p.Name,
			Source:         p.Source,
			NoLSReadSeeks:  cmp.Baseline.Disk.ReadSeeks,
			NoLSWriteSeeks: cmp.Baseline.Disk.WriteSeeks,
			LSReadSeeks:    ls.Disk.ReadSeeks,
			LSWriteSeeks:   ls.Disk.WriteSeeks,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig2 prints read and write seek counts, NoLS vs LS (the paper's
// Figure 2 bar chart, one row per bar pair).
func Fig2(ctx context.Context, w io.Writer, scale float64) error {
	rows, err := Fig2Data(ctx, scale)
	if err != nil {
		return err
	}
	tb := report.NewTable("Figure 2: seek counts, non-log-structured (NoLS) vs log-structured (LS)",
		"workload", "source", "NoLS read", "NoLS write", "LS read", "LS write", "total SAF")
	for _, r := range rows {
		saf := metrics.SAF(r.LSReadSeeks+r.LSWriteSeeks, r.NoLSReadSeeks+r.NoLSWriteSeeks)
		tb.AddRow(r.Name, r.Source.String(),
			report.HumanCount(r.NoLSReadSeeks), report.HumanCount(r.NoLSWriteSeeks),
			report.HumanCount(r.LSReadSeeks), report.HumanCount(r.LSWriteSeeks), saf)
	}
	return tb.Render(w)
}

// Fig3Workloads are the four traces the paper plots over time.
var Fig3Workloads = []string{"usr_1", "web_0", "w91", "w55"}

// Fig3 prints the long-seek (>500 KB) differential series, LS minus
// NoLS, per window of operations (the paper's Figure 3).
func Fig3(ctx context.Context, w io.Writer, scale float64) error {
	for _, name := range Fig3Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		recs := preloaded(p, scale).Records()
		window := int64(len(recs)/48) + 1
		ls, err := analysis.InstrumentedContext(ctx, recs, core.Config{LogStructured: true}, window)
		if err != nil {
			return err
		}
		nols, err := analysis.InstrumentedContext(ctx, recs, core.Config{}, window)
		if err != nil {
			return err
		}
		diff, err := ls.LongSeeks.Sub(nols.LongSeeks)
		if err != nil {
			return err
		}
		vals := diff.Values()
		fmt.Fprintf(w, "Figure 3 (%s): long-seek overhead (LS - NoLS) per %d-op window\n", name, window)
		fmt.Fprintf(w, "  %s\n", report.Sparkline(vals))
		fmt.Fprintf(w, "  windows:")
		for _, v := range vals {
			fmt.Fprintf(w, " %d", v)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig4Workloads are the four traces whose access-distance CDFs the paper
// plots (±2 GB window).
var Fig4Workloads = []string{"src2_2", "usr_0", "w84", "w64"}

// Fig4 prints access-distance CDFs for NoLS and LS over a ±2 GB window.
func Fig4(ctx context.Context, w io.Writer, scale float64) error {
	const gb = int64(1) << 21 // sectors per GB
	for _, name := range Fig4Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		recs := preloaded(p, scale).Records()
		nols, err := analysis.InstrumentedContext(ctx, recs, core.Config{}, 1000)
		if err != nil {
			return err
		}
		ls, err := analysis.InstrumentedContext(ctx, recs, core.Config{LogStructured: true}, 1000)
		if err != nil {
			return err
		}
		tb := report.NewTable(fmt.Sprintf("Figure 4 (%s): CDF of access distances", name),
			"distance (GB)", "NoLS", "LS")
		for gbs := -2.0; gbs <= 2.0; gbs += 0.5 {
			d := gbs * float64(gb)
			tb.AddRow(fmt.Sprintf("%+.1f", gbs), nols.DistanceCDF.At(d), ls.DistanceCDF.At(d))
		}
		if err := tb.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// Fig5Workloads are the four traces whose fragmented-read skew the paper
// plots.
var Fig5Workloads = []string{"usr_0", "hm_1", "w20", "w36"}

// Fig5 prints the dynamic-fragmentation skew: the share of all fragments
// held by the most-fragmented X% of fragmented reads.
func Fig5(ctx context.Context, w io.Writer, scale float64) error {
	tb := report.NewTable("Figure 5: fragment share held by top X% of fragmented reads",
		"workload", "frag reads", "fragments", "top 10%", "top 20%", "top 50%")
	for _, name := range Fig5Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		recs := preloaded(p, scale).Records()
		art, err := analysis.InstrumentedContext(ctx, recs, core.Config{LogStructured: true}, 1000)
		if err != nil {
			return err
		}
		sk := analysis.FragmentedReadCDF(art.FragCounts)
		tb.AddRow(name, sk.FragmentedReads, sk.TotalFragments,
			sk.ShareAtOps(0.10), sk.ShareAtOps(0.20), sk.ShareAtOps(0.50))
	}
	return tb.Render(w)
}

// Fig7Workloads are the traces with visibly non-sequential write
// patterns.
var Fig7Workloads = []string{"hm_1", "w106"}

// Fig7 prints write-ordering profiles: adjacency statistics and a sample
// of the write-LBA sequence around the first descending run.
func Fig7(ctx context.Context, w io.Writer, scale float64) error {
	for _, name := range Fig7Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		recs := preloaded(p, scale).Records()
		prof := analysis.SequentialityProfile(recs)
		fmt.Fprintf(w, "Figure 7 (%s): writes=%d ascending-adjacent=%d descending-adjacent=%d longest-descending-run=%d\n",
			name, prof.Writes, prof.AscendingAdjacent, prof.DescendingAdjacent, prof.LongestDescending)
		// Print the write-LBA sequence around the first reverse-adjacent
		// pair so the non-sequential pattern is visible, as in the
		// paper's scatter plots.
		var writes []geom.Sector
		var writeEnds []geom.Sector
		for _, r := range recs {
			if r.Kind == disk.Write {
				writes = append(writes, r.Extent.Start)
				writeEnds = append(writeEnds, r.Extent.End())
			}
		}
		for i := 1; i < len(writes); i++ {
			if writeEnds[i] == writes[i-1] { // descending-adjacent pair
				lo := i - 1
				hi := i + 15
				if hi > len(writes) {
					hi = len(writes)
				}
				fmt.Fprintf(w, "  write-LBA sample:")
				for _, s := range writes[lo:hi] {
					fmt.Fprintf(w, " %d", s)
				}
				fmt.Fprintln(w)
				break
			}
		}
	}
	return nil
}

// Fig8Workloads are the eight traces in the paper's mis-ordered-write
// bar chart.
var Fig8Workloads = []string{"usr_0", "src2_2", "hm_1", "w84", "w91", "w95", "w106", "w33"}

// Fig8 prints the fraction of mis-ordered writes within 256 KB.
func Fig8(ctx context.Context, w io.Writer, scale float64) error {
	tb := report.NewTable("Figure 8: mis-ordered writes within 256 KB",
		"workload", "writes", "mis-ordered", "fraction")
	for _, name := range Fig8Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		recs := preloaded(p, scale).Records()
		res := analysis.MisorderedWrites(recs, 0)
		tb.AddRow(name, report.HumanCount(res.Writes), report.HumanCount(res.Misordered),
			fmt.Sprintf("%.2f%%", 100*res.Fraction()))
	}
	return tb.Render(w)
}

// Fig10Workloads are the eight traces in the paper's fragment-popularity
// figure.
var Fig10Workloads = []string{"usr_1", "hm_1", "web_0", "src2_2", "w20", "w33", "w55", "w106"}

// Fig10 prints fragment popularity: the access count of the top-ranked
// fragments and the cumulative cache size needed for 50/80/90% of all
// fragment accesses.
func Fig10(ctx context.Context, w io.Writer, scale float64) error {
	tb := report.NewTable("Figure 10: fragment popularity and cumulative cache footprint",
		"workload", "fragments", "top access", "bytes@50%", "bytes@80%", "bytes@90%")
	for _, name := range Fig10Workloads {
		p, err := workload.ByName(name)
		if err != nil {
			return err
		}
		recs := preloaded(p, scale).Records()
		art, err := analysis.InstrumentedContext(ctx, recs, core.Config{LogStructured: true}, 1000)
		if err != nil {
			return err
		}
		entries := art.Popularity.Sorted()
		top := int64(0)
		if len(entries) > 0 {
			top = entries[0].AccessCount
		}
		tb.AddRow(name, len(entries), top,
			report.HumanBytes(analysis.BytesForAccessShare(entries, 0.5)),
			report.HumanBytes(analysis.BytesForAccessShare(entries, 0.8)),
			report.HumanBytes(analysis.BytesForAccessShare(entries, 0.9)))
	}
	return tb.Render(w)
}

// Fig11Row is one workload's SAF set (Figure 11 bars).
type Fig11Row struct {
	Name     string
	Source   workload.Source
	LS       float64
	Defrag   float64
	Prefetch float64
	Cache    float64
}

// Fig11Data computes the Figure 11 seek amplification factors for every
// catalog workload.
func Fig11Data(ctx context.Context, scale float64) ([]Fig11Row, error) {
	cat := catalogOrdered()
	rows := make([]Fig11Row, len(cat))
	err := forEachIndexed(ctx, len(cat), func(ctx context.Context, i int) error {
		p := cat[i]
		recs := preloaded(p, scale).Records()
		cmp, err := core.ComparePaperContext(ctx, recs)
		if err != nil {
			return err
		}
		get := func(n string) float64 {
			v, _ := cmp.VariantByName(n)
			return v.Total
		}
		rows[i] = Fig11Row{
			Name:     p.Name,
			Source:   p.Source,
			LS:       get("LS"),
			Defrag:   get("LS+defrag"),
			Prefetch: get("LS+prefetch"),
			Cache:    get("LS+cache"),
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// Fig11 prints the headline result: SAF under LS and LS plus each
// mechanism, for every workload — as a table and as per-workload bars
// (mirroring the paper's grouped bar chart).
func Fig11(ctx context.Context, w io.Writer, scale float64) error {
	rows, err := Fig11Data(ctx, scale)
	if err != nil {
		return err
	}
	tb := report.NewTable("Figure 11: seek amplification factor (SAF) vs NoLS baseline",
		"workload", "source", "LS", "LS+defrag", "LS+prefetch", "LS+cache")
	maxSAF := 1.0
	for _, r := range rows {
		tb.AddRow(r.Name, r.Source.String(), r.LS, r.Defrag, r.Prefetch, r.Cache)
		for _, v := range []float64{r.LS, r.Defrag, r.Prefetch, r.Cache} {
			if v > maxSAF {
				maxSAF = v
			}
		}
	}
	if err := tb.Render(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%s (%s)\n", r.Name, r.Source)
		fmt.Fprintf(w, "  %s\n", report.Bar("LS", r.LS, maxSAF, 50))
		fmt.Fprintf(w, "  %s\n", report.Bar("+defrag", r.Defrag, maxSAF, 50))
		fmt.Fprintf(w, "  %s\n", report.Bar("+prefetch", r.Prefetch, maxSAF, 50))
		fmt.Fprintf(w, "  %s\n", report.Bar("+cache", r.Cache, maxSAF, 50))
	}
	return nil
}

// All runs every experiment in paper order.
func All(ctx context.Context, w io.Writer, scale float64) error {
	steps := []struct {
		name string
		fn   func(context.Context, io.Writer, float64) error
	}{
		{"table1", Table1},
		{"fig2", Fig2},
		{"fig3", Fig3},
		{"fig4", Fig4},
		{"fig5", Fig5},
		{"fig7", Fig7},
		{"fig8", Fig8},
		{"fig10", Fig10},
		{"fig11", Fig11},
		{"waf", WAF},
		{"cleaning", Cleaning},
		{"timeamp", TimeAmp},
		{"durability", Durability},
	}
	for _, s := range steps {
		if err := s.fn(ctx, w, scale); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

// RunContext dispatches an experiment by name ("table1", "fig2", ...,
// "all"). A cancelled or expired context stops the running experiment
// and returns ctx.Err().
func RunContext(ctx context.Context, w io.Writer, name string, scale float64) error {
	fns := map[string]func(context.Context, io.Writer, float64) error{
		"table1":     Table1,
		"fig2":       Fig2,
		"fig3":       Fig3,
		"fig4":       Fig4,
		"fig5":       Fig5,
		"fig7":       Fig7,
		"fig8":       Fig8,
		"fig10":      Fig10,
		"fig11":      Fig11,
		"waf":        WAF,
		"cleaning":   Cleaning,
		"timeamp":    TimeAmp,
		"durability": Durability,
		"all":        All,
	}
	fn, ok := fns[name]
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q (want table1, fig2, fig3, fig4, fig5, fig7, fig8, fig10, fig11, waf, cleaning, timeamp, durability or all)", name)
	}
	return fn(ctx, w, scale)
}

// catalogOrdered returns the catalog sorted MSR-first, then by name —
// the order the paper's figures group workloads in.
func catalogOrdered() []workload.Profile {
	cat := workload.Catalog()
	sort.SliceStable(cat, func(i, j int) bool {
		if cat[i].Source != cat[j].Source {
			return cat[i].Source == workload.MSR
		}
		return cat[i].Name < cat[j].Name
	})
	return cat
}
