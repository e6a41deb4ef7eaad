package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/ingest"
	"repro/internal/lattice"
	"repro/internal/obsevent"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// ObsReport is the machine-readable result of the observability benchmark
// (snakebench -obs-json → BENCH_obs.json). It gates the wide-event /
// calibration / SLO stack in four acts:
//
//  1. Cold calibration: every sampled query runs against a reset pool with
//     no overlay, so the physical read path must reconcile with the
//     analytic model exactly — per-class decayed page and seek ratios land
//     on exactly 1.0 (a hard gate, not a tolerance), and the global seek
//     correction the adaptive controller would apply is exactly 1.
//  2. Overlay drift: every loaded cell is replaced through the delta log
//     (identical bytes, so sums stay checkable) and the stream reruns cold.
//     Merged reads serve overlaid cells from memory and skip base pages,
//     so observed cost collapses under predicted cost and every class must
//     be flagged drifted — the calibration watch detecting that the
//     analytic model has gone stale under an uncompacted overlay.
//  3. Compaction recovery: a paced compactor drains the backlog in bounded
//     ticks, after which cold passes must again reconcile exactly and the
//     fresh history must decay every drift flag away.
//  4. SLO burn determinism: a clock-injected engine walks one class
//     through ok → burning → at-risk → ok purely by observation mix and
//     clock jumps, and the reported burn rates must equal the closed-form
//     (bad/total)/(1-target) bit for bit.
//
// Every query in every phase also publishes a wide event into a fixed
// ring; the report cross-checks the ring's published/overwritten counters
// against the loop counts.
type ObsReport struct {
	Name     string `json:"name"`
	Seed     uint64 `json:"seed"`
	Full     bool   `json:"full"`
	Strategy string `json:"strategy"`

	Cells         int   `json:"cells"`
	RecordsLoaded int64 `json:"recordsLoaded"`
	PageBytes     int64 `json:"pageBytes"`
	PoolFrames    int   `json:"poolFrames"`

	CalibrationAlpha     float64 `json:"calibrationAlpha"`
	CalibrationThreshold float64 `json:"calibrationThreshold"`
	CalibrationMinWeight float64 `json:"calibrationMinWeight"`

	ColdQueries        int                         `json:"coldQueries"`
	ColdClasses        int                         `json:"coldClasses"`
	ColdRatiosExact    bool                        `json:"coldRatiosExact"`
	ColdSeekCorrection float64                     `json:"coldSeekCorrection"`
	ColdCalibration    []obsevent.ClassCalibration `json:"coldCalibration"`

	OverlayCells          int      `json:"overlayCells"`
	OverlayQueries        int      `json:"overlayQueries"`
	OverlayDeltaHits      int64    `json:"overlayDeltaHits"`
	OverlaySeekCorrection float64  `json:"overlaySeekCorrection"`
	DriftedClasses        []string `json:"driftedClasses"`
	MinPageRatio          float64  `json:"minPageRatio"`

	CompactionTicks      int64                       `json:"compactionTicks"`
	DrainTicks           int                         `json:"drainTicks"`
	RecoveryPasses       int                         `json:"recoveryPasses"`
	RecoveryQueries      int                         `json:"recoveryQueries"`
	DriftCleared         bool                        `json:"driftCleared"`
	RecoveredCalibration []obsevent.ClassCalibration `json:"recoveredCalibration"`

	EventCapacity     int    `json:"eventCapacity"`
	EventsPublished   uint64 `json:"eventsPublished"`
	EventsOverwritten uint64 `json:"eventsOverwritten"`
	EventsExact       bool   `json:"eventsExact"`

	SLOThresholdMs  float64  `json:"sloThresholdMs"`
	SLOTargetPct    float64  `json:"sloTargetPct"`
	SLOGood         int64    `json:"sloGood"`
	SLOBad          int64    `json:"sloBad"`
	SLOBurn5m       float64  `json:"sloBurn5m"`
	SLOBurn1h       float64  `json:"sloBurn1h"`
	SLOExpectedBurn float64  `json:"sloExpectedBurn"`
	SLOBurnExact    bool     `json:"sloBurnExact"`
	SLOStatePath    []string `json:"sloStatePath"`
}

// Summary is the one-line human rendering of the report.
func (r *ObsReport) Summary() string {
	return fmt.Sprintf("cold ratios exact over %d classes (%d queries); overlay drifted %d/%d classes (min page ratio %.3f, %d delta hits); drained in %d ticks, drift cleared after %d passes; SLO path %s (burn %.1f exact=%v); %d events published (%d overwritten)",
		r.ColdClasses, r.ColdQueries,
		len(r.DriftedClasses), r.ColdClasses, r.MinPageRatio, r.OverlayDeltaHits,
		r.DrainTicks, r.RecoveryPasses,
		strings.Join(r.SLOStatePath, "→"), r.SLOBurn5m, r.SLOBurnExact,
		r.EventsPublished, r.EventsOverwritten)
}

// WriteFile writes the report as indented JSON, atomically.
func (r *ObsReport) WriteFile(path string) error {
	return writeReportJSON(path, r)
}

// obsOpts are the knobs of one observability bench run.
type obsOpts struct {
	queries      int // distinct sampled query regions
	frames       int // buffer pool frames
	overlayPass  int // cold passes under the full overlay
	recoverLimit int // max cold passes allowed to clear drift after compaction
}

// defaultObsOpts is the `make bench-obs` configuration.
func defaultObsOpts() obsOpts {
	return obsOpts{
		queries:      192,
		frames:       4096,
		overlayPass:  2,
		recoverLimit: 8,
	}
}

// benchCalibAlpha halves calibration history every observation, so both
// drift and recovery resolve within a few passes of the sampled stream.
// The decayed-weight asymptote is 1/(1-alpha) = 2, so the minimum weight
// for flagging must sit below it; 1.5 means two observations suffice.
const (
	benchCalibAlpha     = 0.5
	benchCalibMinWeight = 1.5
)

// pointLabel renders a query class the way the daemon's metrics do: its
// per-dim levels comma-joined, e.g. "0,2".
func pointLabel(c lattice.Point) string {
	parts := make([]string, len(c))
	for i, lv := range c {
		parts[i] = strconv.Itoa(lv)
	}
	return strings.Join(parts, ",")
}

// obsBench runs the observability benchmark. The reconciliation, drift,
// recovery, and burn-rate expectations are hard gates: a miss returns an
// error, not a report.
func obsBench(cfg tpcd.Config, name string, o obsOpts) (*ObsReport, error) {
	bs, err := buildBenchStore(cfg, o.frames)
	if err != nil {
		return nil, err
	}
	defer bs.Close()
	ctx := context.Background()

	regions, classes, err := sampleRegionsWithClasses(bs.ds, bs.w, bs.order, o.queries)
	if err != nil {
		return nil, err
	}

	rep := &ObsReport{
		Name:                 name,
		Seed:                 cfg.Seed,
		Strategy:             bs.order.Name,
		Cells:                len(bs.ds.BytesPerCell),
		RecordsLoaded:        bs.recordsLoaded,
		PageBytes:            cfg.PageBytes,
		PoolFrames:           o.frames,
		CalibrationAlpha:     benchCalibAlpha,
		CalibrationThreshold: obsevent.DefaultCalibrationThreshold,
		CalibrationMinWeight: benchCalibMinWeight,
	}

	calib := obsevent.NewCalibration(benchCalibAlpha, obsevent.DefaultCalibrationThreshold, benchCalibMinWeight)
	ring := obsevent.NewRing(64)
	rep.EventCapacity = ring.Capacity()
	published := 0

	// coldPass runs the whole sampled stream cold (pool reset per query),
	// feeds every query into the calibration watch, and publishes its wide
	// event. With requireExact the analytic model must reconcile exactly —
	// the same gate the ingest benchmark applies after compaction.
	coldPass := func(phase string, requireExact bool) (int64, error) {
		var deltaHits int64
		for i, r := range regions {
			if err := bs.fs.Pool().Reset(ctx); err != nil {
				return 0, err
			}
			pred := bs.fs.Layout().Query(r)
			var tally storage.PoolTally
			tctx := storage.WithPoolTally(ctx, &tally)
			var records int64
			q0 := time.Now()
			err := readRegion(tctx, bs.fs, r, func(int, []byte) error {
				records++
				return nil
			})
			if err != nil {
				return 0, err
			}
			lat := time.Since(q0)
			obsPages := tally.Stats().Misses
			obsSeeks := tally.Seeks()
			if requireExact && (obsPages != pred.Pages || obsSeeks != pred.Seeks) {
				return 0, fmt.Errorf("obsbench: %s query %d (%v): observed %d pages / %d seeks, model predicts %d / %d",
					phase, i, r, obsPages, obsSeeks, pred.Pages, pred.Seeks)
			}
			lbl := pointLabel(classes[i])
			calib.Observe(lbl, pred.Pages, obsPages, pred.Seeks, obsSeeks)
			deltaHits += tally.DeltaHits()
			ring.Publish(&obsevent.Event{
				TimeUnixNs:     q0.UnixNano(),
				Handler:        "bench",
				Method:         "RUN",
				Path:           "/bench/" + phase,
				Status:         200,
				Outcome:        obsevent.OutcomeOK,
				LatencyNs:      lat.Nanoseconds(),
				Class:          lbl,
				PredictedPages: pred.Pages,
				PredictedSeeks: pred.Seeks,
				PagesRead:      obsPages,
				SeeksObserved:  obsSeeks,
				DeltaHits:      tally.DeltaHits(),
				Records:        records,
			})
			published++
		}
		return deltaHits, nil
	}

	// Phase 1: cold calibration. Overlay-free and cold, predicted must
	// equal observed on every query, so every class ratio is exactly 1.
	if _, err := coldPass("cold", true); err != nil {
		return nil, err
	}
	rep.ColdQueries = len(regions)
	rep.ColdCalibration = calib.Snapshot()
	rep.ColdClasses = len(rep.ColdCalibration)
	rep.ColdRatiosExact = true
	for _, v := range rep.ColdCalibration {
		if v.PageRatio != 1 || v.SeekRatio != 1 {
			return nil, fmt.Errorf("obsbench: cold class %s ratios %v/%v, want exactly 1/1", v.Class, v.PageRatio, v.SeekRatio)
		}
		if v.Drifted {
			return nil, fmt.Errorf("obsbench: cold class %s flagged drifted at ratio 1", v.Class)
		}
	}
	rep.ColdSeekCorrection = calib.SeekCorrection()
	if rep.ColdSeekCorrection != 1 {
		return nil, fmt.Errorf("obsbench: cold seek correction %v, want exactly 1", rep.ColdSeekCorrection)
	}

	// Phase 2: overlay drift. Replace every loaded cell through the delta
	// log with its own bytes: sums stay identical, but merged reads now
	// serve whole cells from the overlay and skip their base pages, so
	// observed cost collapses under the model's prediction.
	// Asking for twice the cell count drives prepareWritePayloads' stride
	// to 1, so every loaded cell gets a payload and no read can fall
	// through to base pages.
	payloads, err := prepareWritePayloads(ctx, bs.fs, bs.framed, 2*len(bs.framed))
	if err != nil {
		return nil, err
	}
	dlog, err := ingest.Open(filepath.Join(bs.dir, "obsbench.delta"), 0, ingest.Options{Policy: ingest.SyncNone})
	if err != nil {
		return nil, err
	}
	defer dlog.Close()
	bs.fs.SetOverlay(dlog.Overlay())
	var writeBytes int64
	for _, p := range payloads {
		if err := dlog.Put(p.cell, p.framed); err != nil {
			return nil, err
		}
		writeBytes += int64(len(p.framed))
	}
	rep.OverlayCells = len(payloads)

	for p := 0; p < o.overlayPass; p++ {
		hits, err := coldPass("overlay", false)
		if err != nil {
			return nil, err
		}
		rep.OverlayDeltaHits += hits
	}
	rep.OverlayQueries = o.overlayPass * len(regions)
	if rep.OverlayDeltaHits == 0 {
		return nil, fmt.Errorf("obsbench: overlay phase hit no delta cells")
	}
	rep.DriftedClasses = calib.DriftedClasses()
	if len(rep.DriftedClasses) != rep.ColdClasses {
		return nil, fmt.Errorf("obsbench: %d of %d classes drifted under a full overlay, want all", len(rep.DriftedClasses), rep.ColdClasses)
	}
	rep.MinPageRatio = 1.0
	for _, v := range calib.Snapshot() {
		if v.PageRatio < rep.MinPageRatio {
			rep.MinPageRatio = v.PageRatio
		}
	}
	if rep.MinPageRatio >= 1-rep.CalibrationThreshold {
		return nil, fmt.Errorf("obsbench: min page ratio %.3f did not fall below the %.2f drift threshold", rep.MinPageRatio, 1-rep.CalibrationThreshold)
	}
	rep.OverlaySeekCorrection = calib.SeekCorrection()
	if rep.OverlaySeekCorrection >= 1 {
		return nil, fmt.Errorf("obsbench: overlay seek correction %v, want < 1", rep.OverlaySeekCorrection)
	}

	// Phase 3: compaction recovery. Drain the backlog in bounded ticks,
	// then decay the stale history out with fresh cold passes — each of
	// which must again reconcile exactly — until no class is flagged.
	comp := ingest.NewCompactor(ingest.CompactorConfig{
		RegionCells:     64,
		MaxBytesPerTick: writeBytes/8 + 1,
	})
	for dlog.PendingCells() > 0 {
		rep.DrainTicks++
		if _, err := comp.Tick(ctx, bs.fs, dlog); err != nil {
			return nil, err
		}
	}
	rep.CompactionTicks, _, _ = comp.Ticks()
	for p := 0; p < o.recoverLimit && !rep.DriftCleared; p++ {
		if _, err := coldPass("recovery", true); err != nil {
			return nil, err
		}
		rep.RecoveryPasses++
		rep.DriftCleared = len(calib.DriftedClasses()) == 0
	}
	rep.RecoveryQueries = rep.RecoveryPasses * len(regions)
	if !rep.DriftCleared {
		return nil, fmt.Errorf("obsbench: drift not cleared after %d recovery passes: %v", rep.RecoveryPasses, calib.DriftedClasses())
	}
	rep.RecoveredCalibration = calib.Snapshot()

	rep.EventsPublished = ring.Published()
	rep.EventsOverwritten = ring.Overwritten()
	rep.EventsExact = rep.EventsPublished == uint64(published) &&
		published == rep.ColdQueries+rep.OverlayQueries+rep.RecoveryQueries
	if !rep.EventsExact {
		return nil, fmt.Errorf("obsbench: ring published %d events, loops ran %d queries", rep.EventsPublished, published)
	}

	if err := obsSLOPhase(rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// obsSLOPhase walks a clock-injected SLO engine through every state
// deterministically and checks the burn rates against the closed form.
// The target is computed at runtime (pct/100) so the expectation goes
// through the same IEEE operations as the engine, making exact equality
// the correct assertion rather than a tolerance.
func obsSLOPhase(rep *ObsReport) error {
	pct := 99.0
	threshold := 5 * time.Millisecond
	obj := obsevent.Objective{Threshold: threshold, Target: pct / 100}
	rep.SLOThresholdMs = float64(threshold.Nanoseconds()) / 1e6
	rep.SLOTargetPct = pct

	base := time.Date(2026, 1, 1, 12, 0, 30, 0, time.UTC)
	offset := time.Duration(0)
	eng := obsevent.NewSLOEngineWithClock(
		obsevent.SLOConfig{HasDefault: true, Default: obj},
		func() time.Time { return base.Add(offset) },
	)
	const class = "bench"
	record := func() { rep.SLOStatePath = append(rep.SLOStatePath, eng.State(class)) }

	// One good request: healthy.
	eng.Observe(class, time.Millisecond, false)
	record()

	// Four threshold-busting requests: both windows burn at
	// (4/5)/(1-0.99) = 80x budget, far past the 14.4 fast-burn line.
	const bad = 4
	for i := 0; i < bad; i++ {
		eng.Observe(class, 2*threshold, false)
	}
	record()
	rep.SLOBurn5m, rep.SLOBurn1h = eng.BurnRates(class)
	rep.SLOExpectedBurn = (float64(bad) / float64(bad+1)) / (1 - obj.Target)
	rep.SLOBurnExact = rep.SLOBurn5m == rep.SLOExpectedBurn && rep.SLOBurn1h == rep.SLOExpectedBurn
	if !rep.SLOBurnExact {
		return fmt.Errorf("obsbench: burn rates %v/%v, closed form predicts exactly %v", rep.SLOBurn5m, rep.SLOBurn1h, rep.SLOExpectedBurn)
	}
	rep.SLOGood, rep.SLOBad = eng.Totals(class)
	if rep.SLOGood != 1 || rep.SLOBad != bad {
		return fmt.Errorf("obsbench: SLO totals %d good / %d bad, want 1 / %d", rep.SLOGood, rep.SLOBad, bad)
	}

	// Ten minutes later the burst has aged out of the short window but
	// still burns the hour budget: at risk, not burning.
	offset += 10 * time.Minute
	record()

	// Two hours later both windows are clean again.
	offset += 2 * time.Hour
	record()

	want := []string{obsevent.SLOStateOK, obsevent.SLOStateBurning, obsevent.SLOStateAtRisk, obsevent.SLOStateOK}
	if len(rep.SLOStatePath) != len(want) {
		return fmt.Errorf("obsbench: SLO state path %v, want %v", rep.SLOStatePath, want)
	}
	for i := range want {
		if rep.SLOStatePath[i] != want[i] {
			return fmt.Errorf("obsbench: SLO state path %v, want %v", rep.SLOStatePath, want)
		}
	}
	return nil
}
