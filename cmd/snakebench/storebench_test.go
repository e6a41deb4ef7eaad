package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tpcd"
	"repro/internal/trace"
)

// kindCount returns the span count recorded for kind, 0 when absent.
func kindCount(s []SpanKindSummary, kind string) int {
	for _, k := range s {
		if k.Kind == kind {
			return k.Count
		}
	}
	return 0
}

// tinyConfig is a warehouse small enough for the full build+load+query
// cycle to run in milliseconds.
func tinyConfig(seed uint64) tpcd.Config {
	return tpcd.Config{
		Manufacturers: 2, PartsPerMfr: 2, Suppliers: 2,
		Years: 1, MonthsPerYear: 2, DaysPerMonth: 2,
		RecordBytes: 16, PageBytes: 64, MeanRecordsPerCell: 2, Seed: seed,
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

func TestRunBadSeedIsUsageError(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-seed", "notanumber"}, &out, &errOut); code != 2 {
		t.Errorf("exit code = %d, want 2", code)
	}
}

func TestStoreBenchDeterministicAndMeasured(t *testing.T) {
	a, err := storeBench(tinyConfig(42), "t", 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.RecordsLoaded == 0 || a.RecordsRead == 0 {
		t.Fatalf("report moved no data: %+v", a)
	}
	if a.Queries != 12 {
		t.Errorf("queries = %d, want 12", a.Queries)
	}
	if a.PredictedPages <= 0 || a.ObservedPageReads <= 0 || a.PredictedSeeks <= 0 || a.ObservedSeeks <= 0 {
		t.Errorf("cost accounting missing: %+v", a)
	}
	if a.Pool.Misses == 0 {
		t.Errorf("pool stats empty: %+v", a.Pool)
	}
	if a.LatencyMsP50 <= 0 || a.LatencyMsP99 < a.LatencyMsP50 || a.LatencyMsMax < a.LatencyMsP99 {
		t.Errorf("latency percentiles not ordered: %+v", a)
	}
	// Every query ran traced against a cold pool, so the span summary must
	// account for contiguous fragments and physical page loads.
	if kindCount(a.SpanSummary, trace.KindFragment) == 0 || kindCount(a.SpanSummary, trace.KindPageLoad) == 0 {
		t.Errorf("span summary missing read-path kinds: %+v", a.SpanSummary)
	}
	// One page_load span per physical read, and a read loads a span window:
	// at least one per seek run, at most one per page.
	if got := int64(kindCount(a.SpanSummary, trace.KindPageLoad)); got < a.ObservedSeeks || got > a.ObservedPageReads {
		t.Errorf("page_load spans = %d, want between the %d seek runs and the %d pages read", got, a.ObservedSeeks, a.ObservedPageReads)
	}

	// The same seed must reproduce the data-dependent numbers exactly.
	b, err := storeBench(tinyConfig(42), "t", 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.RecordsLoaded != b.RecordsLoaded || a.RecordsRead != b.RecordsRead ||
		a.PredictedPages != b.PredictedPages || a.PredictedSeeks != b.PredictedSeeks ||
		a.ObservedPageReads != b.ObservedPageReads || a.ObservedSeeks != b.ObservedSeeks {
		t.Errorf("same seed, different measurements:\n%+v\n%+v", a, b)
	}
	// Span counts are data-dependent (seconds are not) and must reproduce.
	for _, kind := range []string{trace.KindFragment, trace.KindPageLoad} {
		if kindCount(a.SpanSummary, kind) != kindCount(b.SpanSummary, kind) {
			t.Errorf("same seed, different %s span counts:\n%+v\n%+v", kind, a.SpanSummary, b.SpanSummary)
		}
	}

	// A different seed generates a different warehouse.
	c, err := storeBench(tinyConfig(43), "t", 12, 4)
	if err != nil {
		t.Fatal(err)
	}
	if a.RecordsLoaded == c.RecordsLoaded && a.RecordsRead == c.RecordsRead && a.ObservedSeeks == c.ObservedSeeks {
		t.Errorf("seeds 42 and 43 produced identical measurements: %+v", a)
	}
}

func TestBenchReportJSON(t *testing.T) {
	rep, err := storeBench(tinyConfig(1), "roundtrip", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_roundtrip.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, key := range []string{
		"name", "seed", "strategy", "queries", "queriesPerSecond",
		"latencyMsP50", "latencyMsP99", "predictedPages", "observedPageReads",
		"predictedSeeks", "observedSeeks", "pool", "spanSummary",
	} {
		if _, ok := m[key]; !ok {
			t.Errorf("report missing %q", key)
		}
	}
	if m["name"] != "roundtrip" {
		t.Errorf("name = %v, want roundtrip", m["name"])
	}
	if !strings.Contains(rep.Summary(), "queries") {
		t.Errorf("summary %q unreadable", rep.Summary())
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(s, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(s, 0.99); got != 9 {
		t.Errorf("p99 = %v, want 9 (nearest rank)", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v, want 0", got)
	}
}
