package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// smallScale keeps per-test runtime low; figure content is validated for
// structure, not magnitude (magnitudes are asserted in the core and root
// package tests at larger scales).
const smallScale = 0.05

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(context.Background(), &buf, smallScale); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range []string{"usr_0", "usr_1", "hm_1", "w20", "w91", "w106"} {
		if !strings.Contains(out, name) {
			t.Errorf("table1 missing %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "MSR") || !strings.Contains(out, "CloudPhysics") {
		t.Error("table1 missing source column values")
	}
	// MSR workloads come first, per the paper's grouping.
	if strings.Index(out, "usr_0") > strings.Index(out, "w20") {
		t.Error("table1 not grouped MSR-first")
	}
}

func TestFig2(t *testing.T) {
	rows, err := Fig2Data(context.Background(), smallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("fig2 rows = %d, want 21", len(rows))
	}
	for _, r := range rows {
		if r.NoLSReadSeeks+r.NoLSWriteSeeks == 0 {
			t.Errorf("%s: baseline has no seeks", r.Name)
		}
	}
	var buf bytes.Buffer
	if err := Fig2(context.Background(), &buf, smallScale); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "total SAF") {
		t.Error("fig2 output missing SAF column")
	}
}

func TestFig3(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig3(context.Background(), &buf, smallScale); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range Fig3Workloads {
		if !strings.Contains(out, "Figure 3 ("+name+")") {
			t.Errorf("fig3 missing %s section", name)
		}
	}
	if !strings.Contains(out, "windows:") {
		t.Error("fig3 missing windows series")
	}
}

func TestFig4(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(context.Background(), &buf, smallScale); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range Fig4Workloads {
		if !strings.Contains(out, name) {
			t.Errorf("fig4 missing %s", name)
		}
	}
	if !strings.Contains(out, "+2.0") || !strings.Contains(out, "-2.0") {
		t.Error("fig4 missing ±2 GB window rows")
	}
}

func TestFig5(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(context.Background(), &buf, 0.3); err != nil { // needs enough ops to fragment
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range Fig5Workloads {
		if !strings.Contains(out, name) {
			t.Errorf("fig5 missing %s", name)
		}
	}
}

func TestFig7(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7(context.Background(), &buf, 0.5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "hm_1") || !strings.Contains(out, "w106") {
		t.Errorf("fig7 output:\n%s", out)
	}
	if !strings.Contains(out, "longest-descending-run") {
		t.Error("fig7 missing run statistics")
	}
	// hm_1's descending bursts must be visible.
	if !strings.Contains(out, "write-LBA sample:") {
		t.Error("fig7 missing the LBA sample line")
	}
}

func TestFig8(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8(context.Background(), &buf, 0.5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range Fig8Workloads {
		if !strings.Contains(out, name) {
			t.Errorf("fig8 missing %s", name)
		}
	}
	if !strings.Contains(out, "%") {
		t.Error("fig8 missing percentage column")
	}
}

func TestFig10(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig10(context.Background(), &buf, 0.3); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range Fig10Workloads {
		if !strings.Contains(out, name) {
			t.Errorf("fig10 missing %s", name)
		}
	}
	if !strings.Contains(out, "bytes@80%") {
		t.Error("fig10 missing cumulative footprint columns")
	}
}

func TestFig11(t *testing.T) {
	rows, err := Fig11Data(context.Background(), smallScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("fig11 rows = %d", len(rows))
	}
	for _, r := range rows {
		for _, v := range []float64{r.LS, r.Defrag, r.Prefetch, r.Cache} {
			if v <= 0 {
				t.Errorf("%s: non-positive SAF %v", r.Name, v)
			}
		}
	}
	var buf bytes.Buffer
	if err := Fig11(context.Background(), &buf, smallScale); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LS+cache") {
		t.Error("fig11 output missing variant columns")
	}
}

func TestRunDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := RunContext(context.Background(), &buf, "fig8", smallScale); err != nil {
		t.Fatal(err)
	}
	if err := RunContext(context.Background(), &buf, "bogus", smallScale); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("All regenerates every figure")
	}
	var buf bytes.Buffer
	if err := All(context.Background(), &buf, smallScale); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table I", "Figure 2", "Figure 3", "Figure 4", "Figure 5", "Figure 7", "Figure 8", "Figure 10", "Figure 11"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("All output missing %q", want)
		}
	}
}
