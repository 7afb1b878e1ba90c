package main

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0.05", "fig8"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "mis-ordered") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRunMultiple(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-scale", "0.05", "table1", "fig8"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "Figure 8") {
		t.Errorf("output missing sections")
	}
}

func TestRunErrors(t *testing.T) {
	var buf bytes.Buffer
	if err := run(nil, &buf); err == nil {
		t.Error("no experiment names must error")
	}
	if err := run([]string{"bogus"}, &buf); err == nil {
		t.Error("unknown experiment must error")
	}
}

func TestRunTimeout(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-scale", "0.5", "-timeout", "1ns", "fig11"}, &buf)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want context.DeadlineExceeded", err)
	}
}
