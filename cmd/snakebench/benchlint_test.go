package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchArtifactSchema validates one committed BENCH_<suffix>.json artifact:
// decode strictly (unknown fields are an error, so schema drift between the
// reports and the committed artifacts cannot pass silently) and run the
// artifact's own sanity gate.
type benchArtifactSchema struct {
	decode func(dec *json.Decoder) (any, error)
	check  func(v any) error
}

func schemaOf[T any](check func(*T) error) benchArtifactSchema {
	return benchArtifactSchema{
		decode: func(dec *json.Decoder) (any, error) {
			v := new(T)
			if err := dec.Decode(v); err != nil {
				return nil, err
			}
			return v, nil
		},
		check: func(v any) error { return check(v.(*T)) },
	}
}

// benchArtifactSchemas maps the BENCH_<suffix>.json suffix to its schema.
// A committed artifact whose suffix is not listed here fails the lint:
// either it is a stray file to delete, or a new benchmark mode forgot to
// register its report shape.
var benchArtifactSchemas = map[string]benchArtifactSchema{
	"store": schemaOf(func(r *BenchReport) error {
		if r.Queries <= 0 || r.QueriesPerSecond <= 0 {
			return fmt.Errorf("store artifact ran no queries: %+v", r)
		}
		return nil
	}),
	"local": schemaOf(func(r *BenchReport) error {
		if r.Queries <= 0 {
			return fmt.Errorf("store artifact ran no queries: %+v", r)
		}
		return nil
	}),
	"adaptive": schemaOf(func(r *AdaptiveBenchReport) error { return nil }),
	"chaos":    schemaOf(func(r *ChaosReport) error { return nil }),
	"obs": schemaOf(func(r *ObsReport) error {
		if r.ColdQueries <= 0 || r.ColdClasses <= 0 {
			return fmt.Errorf("obs artifact ran no cold queries: %+v", r)
		}
		if !r.ColdRatiosExact || r.ColdSeekCorrection != 1 {
			return fmt.Errorf("cold calibration was not exact (seek correction %v)", r.ColdSeekCorrection)
		}
		for _, v := range r.ColdCalibration {
			if v.PageRatio != 1 || v.SeekRatio != 1 || v.Drifted {
				return fmt.Errorf("cold class %s: ratios %v/%v drifted=%v, want exactly 1/1 unflagged", v.Class, v.PageRatio, v.SeekRatio, v.Drifted)
			}
		}
		if len(r.DriftedClasses) != r.ColdClasses || r.OverlayDeltaHits <= 0 {
			return fmt.Errorf("overlay phase drifted %d of %d classes (%d delta hits), want all", len(r.DriftedClasses), r.ColdClasses, r.OverlayDeltaHits)
		}
		if r.MinPageRatio >= 1-r.CalibrationThreshold {
			return fmt.Errorf("min page ratio %.3f never crossed the drift threshold", r.MinPageRatio)
		}
		if !r.DriftCleared || r.DrainTicks <= 0 {
			return fmt.Errorf("compaction did not restore calibration (drained in %d ticks, cleared=%v)", r.DrainTicks, r.DriftCleared)
		}
		for _, v := range r.RecoveredCalibration {
			if v.Drifted {
				return fmt.Errorf("class %s still drifted after recovery", v.Class)
			}
		}
		if !r.SLOBurnExact {
			return fmt.Errorf("burn rates %v/%v diverged from the closed form %v", r.SLOBurn5m, r.SLOBurn1h, r.SLOExpectedBurn)
		}
		if want := "ok,burning,at-risk,ok"; strings.Join(r.SLOStatePath, ",") != want {
			return fmt.Errorf("SLO state path %v, want %s", r.SLOStatePath, want)
		}
		if !r.EventsExact {
			return fmt.Errorf("event ring counters diverged from the query loops: %+v", r)
		}
		return nil
	}),
	"ingest": schemaOf(func(r *IngestReport) error {
		if r.WriteFraction < 0.10 {
			return fmt.Errorf("mixed phase wrote only %.1f%% of operations, below the 10%% floor", 100*r.WriteFraction)
		}
		if r.ReadP99MixedMs > 2*r.ReadP99BaselineMs {
			return fmt.Errorf("mixed-load read p99 %.3fms exceeds 2x the read-only baseline %.3fms", r.ReadP99MixedMs, r.ReadP99BaselineMs)
		}
		if r.MaxTickFraction >= 1 || r.ReclusterMaxTickFraction >= 1 {
			return fmt.Errorf("a single tick rewrote the whole file (compaction %.2f, recluster %.2f)", r.MaxTickFraction, r.ReclusterMaxTickFraction)
		}
		if r.ConvergedRegret > 1.05 {
			return fmt.Errorf("incremental re-clustering converged to %.3fx the DP-optimal expected seeks, above the 1.05 gate", r.ConvergedRegret)
		}
		if r.PredictedPages != r.ObservedPageReads || r.PredictedSeeks != r.ObservedSeeks {
			return fmt.Errorf("cold path did not reconcile after compaction: pages %d/%d, seeks %d/%d",
				r.PredictedPages, r.ObservedPageReads, r.PredictedSeeks, r.ObservedSeeks)
		}
		if r.ReconcileQueries <= 0 || r.DeltaHitCells <= 0 {
			return fmt.Errorf("ingest artifact skipped a phase: %+v", r)
		}
		return nil
	}),
}

// TestBenchArtifacts lints every committed BENCH_*.json at the repo root:
// each must parse completely under its registered schema — a truncated,
// stray, or schema-drifted artifact fails loudly instead of rotting. This
// is the guard against the failure mode where an artifact silently never
// lands (or lands half-written) and nobody notices for a whole release.
func TestBenchArtifacts(t *testing.T) {
	root := filepath.Join("..", "..")
	matches, err := filepath.Glob(filepath.Join(root, "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("no BENCH_*.json artifacts at the repo root; the benchmark trajectory has been dropped (check .gitignore)")
	}
	for _, path := range matches {
		base := filepath.Base(path)
		suffix := strings.TrimSuffix(strings.TrimPrefix(base, "BENCH_"), ".json")
		schema, ok := benchArtifactSchemas[suffix]
		if !ok {
			t.Errorf("%s: unknown artifact suffix %q — register its schema in benchArtifactSchemas or delete the stray file", base, suffix)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("%s: %v", base, err)
			continue
		}
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		v, err := schema.decode(dec)
		if err != nil {
			t.Errorf("%s: does not parse under its schema (truncated or drifted?): %v", base, err)
			continue
		}
		// Exactly one JSON document, nothing trailing: a concatenated or
		// half-overwritten artifact fails here.
		if dec.More() {
			t.Errorf("%s: trailing data after the report document", base)
			continue
		}
		if err := schema.check(v); err != nil {
			t.Errorf("%s: %v", base, err)
		}
	}
}
