// Package report renders experiment results as aligned ASCII tables and
// simple text charts, so every table and figure of the paper can be
// regenerated on a terminal.
package report

import (
	"fmt"
	"io"
	"strings"

	"smrseek/internal/metrics"
)

// Table is a simple column-aligned text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case float32:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the aligned table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	var total int
	for _, wd := range widths {
		total += wd + 2
	}
	b.WriteString(strings.Repeat("-", total-2))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Bar renders a labelled horizontal bar chart line, scaled so that
// maxValue spans width characters. Negative values render as empty bars.
func Bar(label string, value, maxValue float64, width int) string {
	if width <= 0 {
		width = 40
	}
	n := 0
	if maxValue > 0 && value > 0 {
		n = int(value / maxValue * float64(width))
		if n > width {
			n = width
		}
	}
	return fmt.Sprintf("%-10s %8.2f |%s", label, value, strings.Repeat("#", n))
}

// Sparkline renders a series as a compact unicode sparkline, useful for
// the Figure 3 time-series output.
func Sparkline(values []int64) string {
	if len(values) == 0 {
		return ""
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo
	var b strings.Builder
	for _, v := range values {
		idx := 0
		if span > 0 {
			idx = int((v - lo) * int64(len(glyphs)-1) / span)
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}

// DurabilityTable renders the write-ahead-journal and recovery tallies
// of one run, in a fixed order so journaled runs are byte-for-byte
// comparable across invocations.
func DurabilityTable(d metrics.Durability) *Table {
	tb := NewTable("write-ahead journal & recovery", "metric", "value")
	tb.AddRow("journal appends", HumanCount(d.JournalAppends))
	tb.AddRow("append failures", HumanCount(d.AppendFailures))
	tb.AddRow("checkpoints", HumanCount(d.Checkpoints))
	tb.AddRow("checkpoint age (records)", HumanCount(d.CheckpointAge))
	tb.AddRow("crashed", fmt.Sprintf("%v", d.Crashed))
	if d.Recovered {
		tb.AddRow("records replayed", HumanCount(d.RecordsReplayed))
		tb.AddRow("sectors replayed", HumanCount(d.ReplayedSectors))
		tb.AddRow("torn tail detected", fmt.Sprintf("%v", d.TornTail))
		tb.AddRow("recovered from checkpoint", fmt.Sprintf("%v", d.FromCheckpoint))
	}
	return tb
}

// CleaningTable renders a banded run's persistent-cache and
// band-cleaning tallies — the finite-disk costs (write amplification,
// cleaning stalls) the infinite-disk model cannot see — in a fixed
// order so banded runs are byte-for-byte comparable across invocations.
func CleaningTable(c metrics.Cleaning) *Table {
	tb := NewTable("persistent cache & band cleaning", "metric", "value")
	tb.AddRow("host write sectors", HumanCount(c.HostWriteSectors))
	tb.AddRow("cached writes", HumanCount(c.CachedWrites))
	tb.AddRow("cached sectors", HumanCount(c.CachedSectors))
	tb.AddRow("cache reads", HumanCount(c.CacheReads))
	tb.AddRow("clean runs", HumanCount(c.CleanRuns))
	tb.AddRow("bands cleaned", HumanCount(c.BandsCleaned))
	tb.AddRow("clean read sectors", HumanCount(c.CleanReadSectors))
	tb.AddRow("clean write sectors", HumanCount(c.CleanWriteSectors))
	tb.AddRow("cleaning stalls", HumanCount(c.Stalls))
	tb.AddRow("stalled sectors", HumanCount(c.StallSectors))
	tb.AddRow("dirty bands (peak)", HumanCount(c.DirtyBands))
	tb.AddRow("band crossings", HumanCount(c.BandCrossings))
	tb.AddRow("write amplification", fmt.Sprintf("%.3f", c.WriteAmp()))
	return tb
}

// HistogramTable renders a log2-bucketed histogram (see
// metrics.Histogram) as one row per non-empty bucket: the value range,
// the sample count, and the cumulative fraction through that bucket.
// unit labels the value column ("sectors", "µs", ...).
func HistogramTable(title, unit string, buckets []metrics.Bucket, total int64) *Table {
	tb := NewTable(title, unit, "count", "cum")
	var cum int64
	for _, b := range buckets {
		cum += b.Count
		var rng string
		switch {
		case b.Negative:
			rng = fmt.Sprintf("(-%s, -%s]", HumanCount(b.Hi), HumanCount(b.Lo))
		case b.Lo == 0:
			rng = "0"
		default:
			rng = fmt.Sprintf("[%s, %s)", HumanCount(b.Lo), HumanCount(b.Hi))
		}
		tb.AddRow(rng, HumanCount(b.Count),
			fmt.Sprintf("%.2f%%", 100*float64(cum)/float64(total)))
	}
	return tb
}

// CDFTable renders boundary-sampled CDF points (metrics.CDFFromBuckets) as
// an x / P(X<=x) table.
func CDFTable(title, unit string, pts []metrics.Point) *Table {
	tb := NewTable(title, unit, "P(X<=x)")
	for _, p := range pts {
		tb.AddRow(HumanCount(int64(p.X)), fmt.Sprintf("%.4f", p.P))
	}
	return tb
}

// HumanBytes formats a byte count with binary units.
func HumanBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%d B", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f %ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// HumanCount formats large counts with thousands separators.
func HumanCount(n int64) string {
	s := fmt.Sprintf("%d", n)
	neg := strings.HasPrefix(s, "-")
	if neg {
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}
