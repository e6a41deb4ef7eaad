package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lattice"
	"repro/internal/linear"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/trace"
)

// AdaptivePhase is one measured query stream of the adaptive benchmark,
// always executed against a cold buffer pool so the observed seeks are the
// physical cost of the layout, not of the cache.
type AdaptivePhase struct {
	Name             string  `json:"name"`
	Queries          int     `json:"queries"`
	RecordsRead      int64   `json:"recordsRead"`
	WallSeconds      float64 `json:"wallSeconds"`
	QueriesPerSecond float64 `json:"queriesPerSecond"`

	PredictedPages    int64 `json:"predictedPages"`
	ObservedPageReads int64 `json:"observedPageReads"`
	PredictedSeeks    int64 `json:"predictedSeeks"`
	ObservedSeeks     int64 `json:"observedSeeks"`
}

// AdaptiveBenchReport is the machine-readable result of the adaptive
// reorganization scenario, written as BENCH_adaptive.json: the same store
// measured three times — under its design workload, under a drifted
// workload, and again after the reorganizer migrated it onto the drifted
// workload's optimum — plus the policy evidence (regret) that triggered
// the move.
type AdaptiveBenchReport struct {
	Name           string `json:"name"`
	Seed           uint64 `json:"seed"`
	Full           bool   `json:"full"`
	StrategyBefore string `json:"strategyBefore"`
	StrategyAfter  string `json:"strategyAfter"`
	WorkloadBefore string `json:"workloadBefore"`
	WorkloadAfter  string `json:"workloadAfter"`

	Cells         int   `json:"cells"`
	RecordsLoaded int64 `json:"recordsLoaded"`
	PageBytes     int64 `json:"pageBytes"`
	PoolFrames    int   `json:"poolFrames"`

	Regret           float64 `json:"regret"`
	Generation       int     `json:"generation"`
	MigrationSeconds float64 `json:"migrationSeconds"`

	// MigrationPhases breaks MigrationSeconds down by traced span kind —
	// dp, migrate, copy, flush — from a forced trace around the trigger, so
	// a slow reorganization is attributable to its phase.
	MigrationPhases []SpanKindSummary `json:"migrationPhases,omitempty"`

	Before AdaptivePhase `json:"beforeDrift"`
	Drift  AdaptivePhase `json:"afterDrift"`
	After  AdaptivePhase `json:"afterReorg"`
}

// Summary is the one-line human rendering of the report.
func (r *AdaptiveBenchReport) Summary() string {
	return fmt.Sprintf("regret %.2f → gen %d in %.2fs; seeks/query before=%.1f drifted=%.1f reorged=%.1f (qps %.0f/%.0f/%.0f)",
		r.Regret, r.Generation, r.MigrationSeconds,
		seeksPerQuery(r.Before), seeksPerQuery(r.Drift), seeksPerQuery(r.After),
		r.Before.QueriesPerSecond, r.Drift.QueriesPerSecond, r.After.QueriesPerSecond)
}

func seeksPerQuery(p AdaptivePhase) float64 {
	if p.Queries == 0 {
		return 0
	}
	return float64(p.ObservedSeeks) / float64(p.Queries)
}

// WriteFile writes the report as indented JSON, atomically.
func (r *AdaptiveBenchReport) WriteFile(path string) error {
	return writeReportJSON(path, r)
}

// driftMix picks the Section-6.2 mix whose optimum the deployed strategy
// serves worst — the adversarial drift target — returning the mix and the
// analytic regret the deployed path would suffer under it.
func driftMix(ds *tpcd.Dataset, deployed *core.Path) (tpcd.Mix, float64, error) {
	var best tpcd.Mix
	bestRegret := 0.0
	for _, m := range tpcd.Mixes() {
		w, err := ds.Workload(m)
		if err != nil {
			return best, 0, err
		}
		opt, err := core.Optimal(w)
		if err != nil {
			return best, 0, err
		}
		if opt.Cost <= 0 {
			continue
		}
		regret := cost.OfPath(deployed, true).ExpectedCost(w) / opt.Cost
		if regret > bestRegret {
			bestRegret, best = regret, m
		}
	}
	if bestRegret == 0 {
		return best, 0, fmt.Errorf("adaptivebench: no drift mix found")
	}
	return best, bestRegret, nil
}

// adaptiveBench runs the reorganization scenario end to end: build the
// warehouse clustered for workload A, measure an A stream and then a
// drifted B stream on it (cold pool each time), feed the B stream's classes
// to the adaptive controller, let it migrate the store onto B's optimum,
// and measure the same B stream again on the new generation. All sampling
// is deterministic in the seed.
func adaptiveBench(cfg tpcd.Config, name string, queries, frames int) (*AdaptiveBenchReport, error) {
	if queries <= 0 {
		return nil, fmt.Errorf("adaptivebench: need a positive query count, got %d", queries)
	}
	if cfg.RecordBytes < 8 {
		return nil, fmt.Errorf("adaptivebench: RecordBytes = %d cannot hold the 8-byte measure", cfg.RecordBytes)
	}
	ds, err := tpcd.Build(cfg)
	if err != nil {
		return nil, err
	}
	mixA := tpcd.PaperWorkload7()
	wA, err := ds.Workload(mixA)
	if err != nil {
		return nil, err
	}
	optA, err := core.Optimal(wA)
	if err != nil {
		return nil, err
	}
	orderA, err := linear.FromPath(ds.Schema, optA.Path, true)
	if err != nil {
		return nil, err
	}
	mixB, _, err := driftMix(ds, optA.Path)
	if err != nil {
		return nil, err
	}
	wB, err := ds.Workload(mixB)
	if err != nil {
		return nil, err
	}

	framed := paddedBytes(ds)
	dir, err := os.MkdirTemp("", "snakebench-adaptive")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.db")
	fs, err := storage.CreateFileStore(path, orderA, framed, int(cfg.PageBytes), frames)
	if err != nil {
		return nil, err
	}

	rep := &AdaptiveBenchReport{
		Name:           name,
		Seed:           cfg.Seed,
		StrategyBefore: orderA.Name,
		WorkloadBefore: mixA.String(),
		WorkloadAfter:  mixB.String(),
		Cells:          len(ds.BytesPerCell),
		PageBytes:      cfg.PageBytes,
		PoolFrames:     frames,
	}
	shape := ds.Schema.LeafCounts()
	nSupp, nTime := shape[1], shape[2]
	payload := make([]byte, cfg.RecordBytes)
	var loadErr error
	ds.EachRecord(func(li *tpcd.LineItem) bool {
		part, supp, day := li.Cell()
		binary.LittleEndian.PutUint64(payload[:8], math.Float64bits(li.ExtendedPrice))
		if loadErr = fs.PutRecord((part*nSupp+supp)*nTime+day, payload); loadErr != nil {
			return false
		}
		rep.RecordsLoaded++
		return true
	})
	if loadErr != nil {
		fs.Close()
		return nil, loadErr
	}

	// reopenCold closes the store and reopens it so each phase starts with
	// an empty pool: the seek numbers compare layouts, not cache states.
	order := orderA
	reopenCold := func(p string) error {
		loaded := fs.LoadedBytes()
		if err := fs.Close(); err != nil {
			return err
		}
		fs, err = storage.OpenFileStore(p, order, framed, int(cfg.PageBytes), frames, loaded)
		return err
	}

	regionsA, _, err := sampleRegionsWithClasses(ds, wA, orderA, queries)
	if err != nil {
		fs.Close()
		return nil, err
	}
	regionsB, classesB, err := sampleRegionsWithClasses(ds, wB, orderA, queries)
	if err != nil {
		fs.Close()
		return nil, err
	}

	if err := reopenCold(path); err != nil {
		return nil, err
	}
	if rep.Before, err = runPhase(fs, "before drift", regionsA); err != nil {
		fs.Close()
		return nil, err
	}
	if err := reopenCold(path); err != nil {
		return nil, err
	}
	if rep.Drift, err = runPhase(fs, "after drift", regionsB); err != nil {
		fs.Close()
		return nil, err
	}

	// The adaptive controller sees the drifted stream and re-clusters: the
	// migrator is the same mechanism the daemon uses, minus the catalog.
	newPath := filepath.Join(dir, "bench.g1.db")
	migrate := func(ctx context.Context, d *adaptive.Decision) error {
		o, err := linear.FromPath(ds.Schema, d.Path, d.Snaked)
		if err != nil {
			return err
		}
		dst, _, err := storage.MigrateCtx(ctx, fs, newPath, o, frames, d.Migrate)
		if err != nil {
			return err
		}
		old := fs
		fs, order = dst, o
		rep.StrategyAfter = o.Name
		return old.Close()
	}
	acfg := adaptive.Config{
		CheckInterval:   time.Second,
		Smoothing:       0.5,
		MinWeight:       1,
		RegretThreshold: 1.01,
		Hysteresis:      1,
	}
	ctrl, err := adaptive.New(lattice.New(ds.Schema), optA.Path, true, 0, migrate, acfg)
	if err != nil {
		fs.Close()
		return nil, err
	}
	for _, c := range classesB {
		if err := ctrl.Observe(c); err != nil {
			fs.Close()
			return nil, err
		}
	}
	// MaxSpans far above the serving default: the copy phase emits one
	// page_load span per physical read, and a capped trace would silently
	// drop the later phases (flush, and the daemon's commit/swap kinds).
	rec := trace.NewRecorder(trace.Config{Capacity: 1, RetainedCapacity: 1, MaxSpans: 1 << 20})
	tctx, tr := rec.StartForced(context.Background(), "bench-reorg")
	start := time.Now()
	d, err := ctrl.Trigger(tctx, false)
	tr.Finish(err)
	if err != nil {
		fs.Close()
		return nil, fmt.Errorf("adaptivebench: reorganization did not fire: %w", err)
	}
	rep.MigrationSeconds = time.Since(start).Seconds()
	phases := spanAccumulator{}
	phases.add(tr.Spans())
	rep.MigrationPhases = phases.summaries()
	rep.Regret = d.Regret
	rep.Generation = ctrl.Generation()

	if err := reopenCold(newPath); err != nil {
		return nil, err
	}
	if rep.After, err = runPhase(fs, "after reorg", regionsB); err != nil {
		fs.Close()
		return nil, err
	}
	return rep, fs.Close()
}

// runPhase executes one query stream, timing it and accumulating both sides
// of the cost model.
func runPhase(fs *storage.FileStore, name string, regions []linear.Region) (AdaptivePhase, error) {
	p := AdaptivePhase{Name: name, Queries: len(regions)}
	start := time.Now()
	for _, r := range regions {
		pred := fs.Layout().Query(r)
		var tally storage.PoolTally
		ctx := storage.WithPoolTally(context.Background(), &tally)
		err := fs.ReadQueryCtx(ctx, r, func(cell int, record []byte) error {
			p.RecordsRead++
			return nil
		})
		if err != nil {
			return p, err
		}
		p.PredictedPages += pred.Pages
		p.PredictedSeeks += pred.Seeks
		p.ObservedPageReads += tally.Stats().Misses
		p.ObservedSeeks += tally.Seeks()
	}
	p.WallSeconds = time.Since(start).Seconds()
	if p.WallSeconds > 0 {
		p.QueriesPerSecond = float64(p.Queries) / p.WallSeconds
	}
	return p, nil
}
