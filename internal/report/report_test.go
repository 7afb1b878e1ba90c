package report

import (
	"bytes"
	"strings"
	"testing"

	"smrseek/internal/metrics"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("My Title", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("a-much-longer-name", 42)
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "My Title") {
		t.Error("title missing")
	}
	if !strings.Contains(out, "1.50") {
		t.Errorf("float formatting wrong:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	// Columns align: both rows have "value" column starting at the same offset.
	h := lines[1]
	idx := strings.Index(h, "value")
	if idx < 0 || len(lines[3]) < idx {
		t.Fatalf("alignment broken:\n%s", out)
	}
}

func TestBar(t *testing.T) {
	s := Bar("w91", 5, 10, 20)
	if !strings.Contains(s, "w91") || !strings.Contains(s, "##########") {
		t.Errorf("Bar = %q", s)
	}
	if strings.Count(Bar("x", 20, 10, 10), "#") != 10 {
		t.Error("bar must clamp at width")
	}
	if strings.Contains(Bar("x", -5, 10, 10), "#") {
		t.Error("negative bar must be empty")
	}
	if strings.Count(Bar("x", 5, 10, 0), "#") != 20 {
		t.Error("zero width defaults to 40 (5/10 → 20 hashes)")
	}
}

func TestSparkline(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Error("empty series should be empty string")
	}
	s := Sparkline([]int64{0, 1, 2, 3, 4, 5, 6, 7})
	if len([]rune(s)) != 8 {
		t.Errorf("sparkline length = %d", len([]rune(s)))
	}
	if []rune(s)[0] != '▁' || []rune(s)[7] != '█' {
		t.Errorf("sparkline shape wrong: %s", s)
	}
	flat := Sparkline([]int64{5, 5, 5})
	if flat != "▁▁▁" {
		t.Errorf("flat sparkline = %s", flat)
	}
}

func TestHumanBytes(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{500, "500 B"},
		{2048, "2.0 KiB"},
		{64 << 20, "64.0 MiB"},
		{3 << 30, "3.0 GiB"},
	}
	for _, c := range cases {
		if got := HumanBytes(c.n); got != c.want {
			t.Errorf("HumanBytes(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestHumanCount(t *testing.T) {
	cases := []struct {
		n    int64
		want string
	}{
		{0, "0"},
		{999, "999"},
		{1000, "1,000"},
		{1234567, "1,234,567"},
		{-4321, "-4,321"},
	}
	for _, c := range cases {
		if got := HumanCount(c.n); got != c.want {
			t.Errorf("HumanCount(%d) = %q, want %q", c.n, got, c.want)
		}
	}
}

func TestDurabilityTable(t *testing.T) {
	d := metrics.Durability{
		JournalAppends: 12000,
		Checkpoints:    12,
		CheckpointAge:  345,
		Crashed:        true,
	}
	var buf bytes.Buffer
	if err := DurabilityTable(d).Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"write-ahead journal & recovery",
		"journal appends", "12,000",
		"checkpoint age (records)", "345",
		"crashed", "true",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "records replayed") {
		t.Error("recovery rows shown for a run that never recovered")
	}
	d.Recovered = true
	d.RecordsReplayed = 345
	d.TornTail = true
	buf.Reset()
	if err := DurabilityTable(d).Render(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"records replayed", "torn tail detected", "recovered from checkpoint"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("recovery table missing %q:\n%s", want, buf.String())
		}
	}
}
