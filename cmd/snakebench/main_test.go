package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/tpcd"
)

// TestRunBadFlagIsUsageError: a flag the tool does not have — among them
// the retired benchmark modes, which a script may still pass — or a value that would print nothing or nonsense is a usage error
// (exit 2) that prints no table. A -samples of 0 printed a Table 4 of
// 0.00 (0.00), and a -tables id the paper does not have printed nothing;
// both exited 0.
func TestRunBadFlagIsUsageError(t *testing.T) {
	const undefined = "flag provided but not defined"
	for _, c := range []struct {
		args []string
		diag string
	}{
		{[]string{"-no-such-flag"}, undefined},
		{[]string{"-json", "BENCH_local.json"}, undefined},
		{[]string{"-adaptive-json", "BENCH_adaptive.json"}, undefined},
		{[]string{"-chaos-json", "BENCH_chaos.json"}, undefined},
		{[]string{"-ingest-json", "BENCH_ingest.json"}, undefined},
		{[]string{"-obs-json", "BENCH_obs.json"}, undefined},
		{[]string{"-figures=false", "-samples", "0", "-tables", "4"}, "-samples 0"},
		{[]string{"-figures=false", "-samples", "-3", "-tables", "1"}, "-samples -3"},
		{[]string{"-figures=false", "-tables", "7"}, `no table "7"`},
		{[]string{"-figures=false", "-tables", "0"}, `no table "0"`},
		{[]string{"-figures=false", "-tables", "1, x"}, `no table "x"`},
	} {
		var out, errOut bytes.Buffer
		if code := run(c.args, &out, &errOut); code != 2 {
			t.Errorf("run(%v) = %d, want 2", c.args, code)
		}
		if !strings.Contains(errOut.String(), c.diag) {
			t.Errorf("run(%v) stderr = %q, want %q", c.args, errOut.String(), c.diag)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed %q before rejecting its input", c.args, out.String())
		}
	}
}

// TestRunRejectsBenchKnobsWithoutMode: the knobs of the retired benchmark
// modes are gone with them, so a script that still passes one gets a usage
// error (exit 2) and no table, not a run that silently ignores it.
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
		if !strings.Contains(errOut.String(), "flag provided but not defined") {
			t.Errorf("run(%v) stderr = %q, want an unknown-flag diagnostic", args, errOut.String())
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed %q before rejecting its input", args, out.String())
		}
	}
}

func TestRunBadSeedIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-seed", "notanumber"}, &out, &errOut); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

// TestConfigHelpersHonorSeed: every generated dataset must use the -seed
// flag; the validate path used to hardcode Seed 1 regardless.
func TestConfigHelpersHonorSeed(t *testing.T) {
	if got := validateConfig(7).Seed; got != 7 {
		t.Errorf("validateConfig seed = %d, want 7", got)
	}
	reduced := warehouseConfig(false, 7)
	if reduced.Seed != 7 {
		t.Errorf("warehouseConfig(reduced) seed = %d, want 7", reduced.Seed)
	}
	if reduced.PartsPerMfr != 8 || reduced.Years != 4 {
		t.Errorf("warehouseConfig(reduced) = %+v, want reduced dimensions", reduced)
	}
	full := warehouseConfig(true, 9)
	if full.Seed != 9 {
		t.Errorf("warehouseConfig(full) seed = %d, want 9", full.Seed)
	}
	if def := tpcd.DefaultConfig(); full.PartsPerMfr != def.PartsPerMfr || full.Years != def.Years {
		t.Errorf("warehouseConfig(full) = %+v, want the paper's dimensions", full)
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

// Every input is a flag, so a positional argument would be silently
// ignored: it is a usage error (exit 2), not a half-executed run.
func TestRunRejectsPositionalArgs(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-figures=false", "stray-arg"}, &out, &errOut); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unexpected arguments") {
		t.Errorf("stderr = %q, want a positional-argument diagnostic", errOut.String())
	}
}
