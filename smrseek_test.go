package smrseek_test

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"smrseek"
)

func TestWorkloadsCatalog(t *testing.T) {
	names := smrseek.Workloads()
	if len(names) != 21 {
		t.Fatalf("Workloads() = %d names, want 21", len(names))
	}
	for _, n := range names {
		p, err := smrseek.Workload(n)
		if err != nil {
			t.Fatalf("Workload(%s): %v", n, err)
		}
		if p.Name != n {
			t.Errorf("Workload(%s).Name = %s", n, p.Name)
		}
	}
	if _, err := smrseek.Workload("bogus"); err == nil {
		t.Error("unknown workload must error")
	}
}

func TestMustWorkloadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustWorkload(bogus) should panic")
		}
	}()
	smrseek.MustWorkload("bogus")
}

func TestRunAndCompare(t *testing.T) {
	recs := smrseek.MustWorkload("hm_1").Generate(0.3)
	st, err := smrseek.Run(smrseek.Config{LogStructured: true}, recs)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reads == 0 || st.Disk.ReadSeeks == 0 {
		t.Fatalf("stats look empty: %+v", st)
	}
	cmp, err := smrseek.ComparePaper(recs)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Variants) != 4 {
		t.Fatalf("variants = %d", len(cmp.Variants))
	}
}

func TestCharacterizeAndMisorder(t *testing.T) {
	recs := smrseek.MustWorkload("src2_2").Generate(0.3)
	c := smrseek.Characterize(recs)
	if c.Ops != c.ReadCount+c.WriteCount || c.Ops == 0 {
		t.Fatalf("characteristics inconsistent: %+v", c)
	}
	mis, writes := smrseek.MisorderedWrites(recs)
	if writes == 0 || mis == 0 {
		t.Errorf("src2_2 should show mis-ordered writes, got %d/%d", mis, writes)
	}
	frac := float64(mis) / float64(writes)
	if frac < 0.01 || frac > 0.15 {
		t.Errorf("src2_2 mis-order fraction %v outside the Figure 8 ballpark", frac)
	}
}

func TestTraceRoundTripFacade(t *testing.T) {
	recs := smrseek.MustWorkload("ts_0").Generate(0.05)
	for _, format := range []smrseek.TraceFormat{smrseek.FormatCP, smrseek.FormatMSR} {
		var buf bytes.Buffer
		if err := smrseek.WriteTrace(&buf, format, recs); err != nil {
			t.Fatalf("%s write: %v", format, err)
		}
		r, err := smrseek.OpenTrace(&buf, format, -1)
		if err != nil {
			t.Fatalf("%s open: %v", format, err)
		}
		got, err := smrseek.ReadAll(r)
		if err != nil {
			t.Fatalf("%s read: %v", format, err)
		}
		if len(got) != len(recs) {
			t.Fatalf("%s round trip lost records: %d vs %d", format, len(got), len(recs))
		}
		for i := range got {
			if got[i].Kind != recs[i].Kind || got[i].Extent != recs[i].Extent {
				t.Fatalf("%s record %d mismatch: %v vs %v", format, i, got[i], recs[i])
			}
		}
	}
	if _, err := smrseek.OpenTrace(&bytes.Buffer{}, "nope", -1); err == nil {
		t.Error("unknown format must error")
	}
	if err := smrseek.WriteTrace(&bytes.Buffer{}, "nope", recs); err == nil {
		t.Error("unknown format must error")
	}
}

func TestRunExperimentDispatch(t *testing.T) {
	var buf bytes.Buffer
	if err := smrseek.RunExperimentContext(context.Background(), &buf, "fig8", 0.05); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mis-ordered") {
		t.Errorf("fig8 output unexpected:\n%s", buf.String())
	}
	if err := smrseek.RunExperimentContext(context.Background(), &buf, "nope", 0.05); err == nil {
		t.Error("unknown experiment must error")
	}
}

// headlineRows runs the paper comparison at scale for every workload
// headlineVerdicts reads: workload -> variant -> total SAF.
func headlineRows(t *testing.T, scale float64) map[string]map[string]float64 {
	t.Helper()
	rows := map[string]map[string]float64{}
	for _, name := range []string{"usr_0", "src2_2", "web_0", "wdev_0", "mds_0", "usr_1", "hm_1", "w91", "w20"} {
		cmp, err := smrseek.ComparePaper(smrseek.MustWorkload(name).Generate(scale))
		if err != nil {
			t.Fatal(err)
		}
		rows[name] = map[string]float64{}
		for _, v := range cmp.Variants {
			rows[name][v.Name] = v.Total
		}
	}
	return rows
}

// A headlineVerdict is one qualitative claim checked against the rows.
type headlineVerdict struct {
	ok  bool
	msg string
}

// headlineVerdicts checks the qualitative results the paper reports:
// (a) write-heavy MSR traces are log-friendly while usr_1/hm_1 are not;
// (b) w91 is strongly log-sensitive and selective caching repairs it;
// (c) defrag worsens w20; (d) prefetch substantially improves w91.
func headlineVerdicts(rows map[string]map[string]float64) []headlineVerdict {
	var out []headlineVerdict
	check := func(ok bool, format string, args ...any) {
		out = append(out, headlineVerdict{ok, fmt.Sprintf(format, args...)})
	}
	for _, friendly := range []string{"usr_0", "src2_2", "web_0", "wdev_0", "mds_0"} {
		got := rows[friendly]["LS"]
		check(got < 1, "%s: LS SAF = %.2f, want < 1 (log-friendly per Figure 11a)", friendly, got)
	}
	for _, sensitive := range []string{"usr_1", "hm_1"} {
		got := rows[sensitive]["LS"]
		check(got > 1, "%s: LS SAF = %.2f, want > 1 (Figure 11a)", sensitive, got)
	}

	w91 := rows["w91"]
	check(w91["LS"] >= 2, "w91 LS SAF = %.2f, want strongly amplified (paper: 3.7)", w91["LS"])
	check(w91["LS+cache"] < 1, "w91 LS+cache SAF = %.2f, want < 1 (paper: 0.2)", w91["LS+cache"])
	check(w91["LS+prefetch"] <= w91["LS"]/2, "w91 prefetch SAF %.2f, want a substantial improvement over LS %.2f", w91["LS+prefetch"], w91["LS"])

	w20 := rows["w20"]
	check(w20["LS+defrag"] > w20["LS"], "w20: defrag SAF %.2f should exceed LS %.2f (paper: worsened 2.8x)", w20["LS+defrag"], w20["LS"])
	check(w20["LS+cache"] < w20["LS"], "w20: cache SAF %.2f should beat LS %.2f", w20["LS+cache"], w20["LS"])
	return out
}

// TestPaperHeadlineShapes asserts the paper's qualitative results at the
// default scale.
func TestPaperHeadlineShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("headline shape check runs several full comparisons")
	}
	for _, v := range headlineVerdicts(headlineRows(t, 0.5)) {
		if !v.ok {
			t.Error(v.msg)
		}
	}
}

// TestHeadlineVerdictsByScale logs the same verdicts at other scales
// without asserting them: Figure 11's shapes depend on trace length
// (docs/fig11-scale-sweep.txt), and this records which hold where.
func TestHeadlineVerdictsByScale(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the headline comparisons at three scales")
	}
	for _, scale := range []float64{0.25, 1, 2} {
		held := 0
		verdicts := headlineVerdicts(headlineRows(t, scale))
		for _, v := range verdicts {
			mark := "FAIL"
			if v.ok {
				mark, held = "ok  ", held+1
			}
			t.Logf("scale %-4g %s %s", scale, mark, v.msg)
		}
		t.Logf("scale %-4g %d of %d verdicts hold", scale, held, len(verdicts))
	}
}
