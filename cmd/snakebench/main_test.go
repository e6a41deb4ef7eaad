package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunBadFlagIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &out, &errOut); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "flag provided but not defined") {
		t.Errorf("stderr = %q, want flag diagnostic", errOut.String())
	}
}

func TestRunAnalyticTables(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-figures=false", "-tables", "1,2"}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr = %s", code, errOut.String())
	}
	got := out.String()
	for _, want := range []string{"Table 1", "Table 2"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(got, "Table 3") {
		t.Error("Table 3 printed although not requested")
	}
}

func TestRunNothingRequested(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-figures=false", "-tables", ""}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr = %s", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Errorf("output = %q, want none", out.String())
	}
}

func TestRunFigures(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-tables", ""}, &out, &errOut); code != 0 {
		t.Fatalf("exit code = %d, stderr = %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "Figure 3") {
		t.Error("output missing the Figure 3 lattice")
	}
}

// Flag combinations that would silently ignore input must be usage errors
// (exit 2), not half-executed runs: that is how a benchmark artifact goes
// missing for a whole release without anyone noticing.
func TestRunRejectsPositionalArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-figures=false", "stray-arg"}, &out, &errOut); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unexpected arguments") {
		t.Errorf("stderr = %q, want a positional-argument diagnostic", errOut.String())
	}
}

func TestRunRejectsBenchKnobsWithoutMode(t *testing.T) {
	for _, args := range [][]string{
		{"-bench-queries", "8"},
		{"-bench-frames", "64"},
		{"-name", "orphan"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", args, code)
		}
		if !strings.Contains(errOut.String(), "no effect without a benchmark mode") {
			t.Errorf("run(%v) stderr = %q, want a mode diagnostic", args, errOut.String())
		}
	}
}
