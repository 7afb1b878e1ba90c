package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestWAFProfilesValid(t *testing.T) {
	ps := WAFProfiles()
	if len(ps) != 3 {
		t.Fatalf("profiles = %d", len(ps))
	}
	for _, p := range ps {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestWAFExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := WAF(context.Background(), &buf, 0.5); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"oltp", "mixed", "append", "LS (infinite)", "SegLS greedy", "SegLS cost-benefit", "MediaCache"} {
		if !strings.Contains(out, want) {
			t.Errorf("waf output missing %q:\n%s", want, out)
		}
	}
	// The oltp rows must show the §II trade-off: a MediaCache WAF above 1.
	lines := strings.Split(out, "\n")
	var sawMCWAF bool
	for _, ln := range lines {
		if strings.Contains(ln, "MediaCache") && strings.Contains(ln, "oltp") {
			fields := strings.Fields(ln)
			if len(fields) >= 5 && fields[4] > "1.00" {
				sawMCWAF = true
			}
		}
	}
	if !sawMCWAF {
		t.Errorf("oltp MediaCache row should show WAF > 1:\n%s", out)
	}
}

func TestTimeAmpExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := TimeAmp(context.Background(), &buf, 0.1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"usr_1", "w91", "LS+cache", "time amplification"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeamp output missing %q", want)
		}
	}
}
