package report

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"smrseek/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden pins a table's exact rendering. Formatting changes are
// fine — but deliberate: regenerate with
//
//	go test ./internal/report -run Golden -update
func checkGolden(t *testing.T, name string, tb *Table) {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s rendering changed (regenerate with -update if deliberate)\n got:\n%s\nwant:\n%s",
			name, buf.Bytes(), want)
	}
}

// TestGoldenFig2 pins the Figure 2 table shape (headers and cell
// formatting as built by internal/experiments) on fixed representative
// data, so the experiment output only changes deliberately.
func TestGoldenFig2(t *testing.T) {
	tb := NewTable("Figure 2: seek counts, non-log-structured (NoLS) vs log-structured (LS)",
		"workload", "source", "NoLS read", "NoLS write", "LS read", "LS write", "total SAF")
	tb.AddRow("src2_2", "MSR", HumanCount(152340), HumanCount(98100),
		HumanCount(390112), HumanCount(1200), metrics.SAF(390112+1200, 152340+98100))
	tb.AddRow("w84", "Tencent", HumanCount(5000), HumanCount(41000),
		HumanCount(88123), HumanCount(907), metrics.SAF(88123+907, 5000+41000))
	tb.AddRow("ts_0", "MSR", HumanCount(0), HumanCount(0),
		HumanCount(0), HumanCount(0), metrics.SAF(0, 0))
	checkGolden(t, "fig2", tb)
}

func TestGoldenFig11(t *testing.T) {
	tb := NewTable("Figure 11: seek amplification factor (SAF) vs NoLS baseline",
		"workload", "source", "LS", "LS+defrag", "LS+prefetch", "LS+cache")
	tb.AddRow("usr_0", "MSR", 2.37, 1.42, 1.18, 1.05)
	tb.AddRow("w64", "Tencent", 11.08, 3.96, 2.2, 1.61)
	tb.AddRow("hm_1", "MSR", 1.0, 1.0, 1.0, 1.0)
	checkGolden(t, "fig11", tb)
}

func TestGoldenDurabilityTable(t *testing.T) {
	checkGolden(t, "durability", DurabilityTable(metrics.Durability{
		JournalAppends:  120345,
		AppendFailures:  3,
		Checkpoints:     117,
		CheckpointAge:   345,
		Crashed:         true,
		Recovered:       true,
		RecordsReplayed: 345,
		ReplayedSectors: 11040,
		TornTail:        true,
		FromCheckpoint:  true,
	}))
}

func TestGoldenCleaningTable(t *testing.T) {
	checkGolden(t, "cleaning", CleaningTable(metrics.Cleaning{
		CachedWrites:      48211,
		CachedSectors:     1530112,
		CacheReads:        20931,
		CleanRuns:         811,
		BandsCleaned:      930,
		CleanReadSectors:  17003520,
		CleanWriteSectors: 18155520,
		Stalls:            119,
		StallSectors:      2312960,
		DirtyBands:        210,
		HostWriteSectors:  40255488,
		BandCrossings:     88012,
	}))
}

func TestGoldenHistogramTable(t *testing.T) {
	h := metrics.NewHistogram()
	for _, v := range []int64{-5000, -4096, -3, 0, 0, 1, 7, 8, 500, 500, 501, 1 << 20} {
		h.Observe(v)
	}
	checkGolden(t, "histogram", HistogramTable(
		"seek distance histogram", "sectors", h.Buckets(), h.Total()))
}

func TestGoldenCDFTable(t *testing.T) {
	h := metrics.NewHistogram()
	for _, v := range []int64{-5000, -4096, -3, 0, 0, 1, 7, 8, 500, 500, 501, 1 << 20} {
		h.Observe(v)
	}
	checkGolden(t, "cdf", CDFTable(
		"seek distance CDF", "sectors", metrics.CDFFromBuckets(h.Buckets(), h.Total())))
}
