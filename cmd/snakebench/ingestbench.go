package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/ingest"
	"repro/internal/linear"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// IngestReport is the machine-readable result of the write-path benchmark
// (snakebench -ingest-json → BENCH_ingest.json). It gates the delta-store
// ingest path in four acts:
//
//  1. Read-only baseline: the sampled query stream runs closed-loop with a
//     warm pool, giving the read latency distribution with no writes in
//     the system.
//  2. Mixed load: the same stream runs again with every sixth operation an
//     upsert through the delta log (~17% writes, above the 10% floor) while
//     a background compactor folds the backlog into the base file in paced
//     ticks. Reads merge pending deltas on the fly; each is validated
//     against the read-only reference sum, and the report records how many
//     overlaid cells the reads actually hit. The p99 gate (mixed within 2×
//     of baseline) is asserted on the committed artifact by the bench lint.
//  3. Drain + cold reconciliation: the compactor drains the backlog —
//     never the whole file in one tick — and a per-query cold pass then
//     requires predicted == observed pages and seeks exactly, proving the
//     write path kept the store byte-identical to the analytic model.
//  4. Incremental re-clustering: a second copy of the warehouse is built on
//     a deliberately suboptimal row-major order and migrated region-by-
//     region (worst-scored first, bounded cells per tick) onto the
//     DP-optimal snaked order, with a pending delta riding along. The
//     migrated store's observed seeks over the sampled stream must land
//     within 5% of the DP-optimal prediction (ConvergedRegret ≤ 1.05).
type IngestReport struct {
	Name     string `json:"name"`
	Seed     uint64 `json:"seed"`
	Full     bool   `json:"full"`
	Strategy string `json:"strategy"`

	Cells         int   `json:"cells"`
	RecordsLoaded int64 `json:"recordsLoaded"`
	PageBytes     int64 `json:"pageBytes"`
	PoolFrames    int   `json:"poolFrames"`

	BaselineReads     int     `json:"baselineReads"`
	BaselineSeconds   float64 `json:"baselineSeconds"`
	BaselineQPS       float64 `json:"baselineQPS"`
	ReadP50BaselineMs float64 `json:"readP50BaselineMs"`
	ReadP99BaselineMs float64 `json:"readP99BaselineMs"`

	MixedReads     int     `json:"mixedReads"`
	MixedWrites    int     `json:"mixedWrites"`
	WriteFraction  float64 `json:"writeFraction"`
	MixedSeconds   float64 `json:"mixedSeconds"`
	MixedQPS       float64 `json:"mixedQPS"`
	ReadP50MixedMs float64 `json:"readP50MixedMs"`
	ReadP99MixedMs float64 `json:"readP99MixedMs"`
	P99Ratio       float64 `json:"p99Ratio"`
	DeltaHitCells  int64   `json:"deltaHitCells"`

	CompactionTicks int64   `json:"compactionTicks"`
	CompactedCells  int64   `json:"compactedCells"`
	CompactedBytes  int64   `json:"compactedBytes"`
	DrainTicks      int     `json:"drainTicks"`
	MaxTickCells    int     `json:"maxTickCells"`
	MaxTickFraction float64 `json:"maxTickFraction"`

	ReconcileQueries  int   `json:"reconcileQueries"`
	PredictedPages    int64 `json:"predictedPages"`
	ObservedPageReads int64 `json:"observedPageReads"`
	PredictedSeeks    int64 `json:"predictedSeeks"`
	ObservedSeeks     int64 `json:"observedSeeks"`

	ReclusterTicks           int     `json:"reclusterTicks"`
	ReclusterMaxTickFraction float64 `json:"reclusterMaxTickFraction"`
	StartRegret              float64 `json:"startRegret"`
	ConvergedRegret          float64 `json:"convergedRegret"`
}

// Summary is the one-line human rendering of the report.
func (r *IngestReport) Summary() string {
	return fmt.Sprintf("baseline p99=%.3fms, mixed (%.0f%% writes) p99=%.3fms (%.2fx); %d delta-hit reads; drained in %d ticks (max %.1f%% of file per tick); recluster %d ticks, regret %.3f→%.3f; pages predicted=%d read=%d",
		r.ReadP99BaselineMs, 100*r.WriteFraction, r.ReadP99MixedMs, r.P99Ratio,
		r.DeltaHitCells, r.DrainTicks, 100*r.MaxTickFraction,
		r.ReclusterTicks, r.StartRegret, r.ConvergedRegret,
		r.PredictedPages, r.ObservedPageReads)
}

// WriteFile writes the report as indented JSON, atomically.
func (r *IngestReport) WriteFile(path string) error {
	return writeReportJSON(path, r)
}

// ingestOpts are the knobs of one ingest bench run.
type ingestOpts struct {
	queries    int // distinct sampled query regions
	frames     int // buffer pool frames
	passes     int // closed-loop passes per phase
	writeEvery int // every n-th mixed-phase operation is an upsert
	writeCells int // distinct cells the writer cycles through
	reconcile  int // queries in the cold reconciliation slice
}

// defaultIngestOpts is the `make bench-ingest` configuration: one in six
// operations is a write (~17%, above the acceptance floor of 10%).
func defaultIngestOpts() ingestOpts {
	return ingestOpts{
		queries:    256,
		frames:     4096,
		passes:     4,
		writeEvery: 6,
		writeCells: 256,
		reconcile:  32,
	}
}

// cellPayload is one prepared whole-cell upsert: the cell's own records
// re-framed, so a write replaces the cell with identical bytes and every
// read stays checkable against the read-only reference sums.
type cellPayload struct {
	cell   int
	framed []byte
}

// prepareWritePayloads samples up to n loaded cells and captures their
// exactly-fitting framed payloads.
func prepareWritePayloads(ctx context.Context, fs *storage.FileStore, framed []int64, n int) ([]cellPayload, error) {
	var out []cellPayload
	stride := len(framed)/n + 1
	for cell := 0; cell < len(framed) && len(out) < n; cell += stride {
		if framed[cell] == 0 {
			continue
		}
		var records [][]byte
		if err := fs.ReadCellCtx(ctx, cell, func(rec []byte) error {
			records = append(records, append([]byte(nil), rec...))
			return nil
		}); err != nil {
			return nil, err
		}
		if len(records) == 0 {
			continue
		}
		out = append(out, cellPayload{cell: cell, framed: storage.FrameRecords(records...)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("ingestbench: no loaded cells to write")
	}
	return out, nil
}

// ingestBench runs the write-path benchmark. The read-validation and
// reconciliation phases are hard gates: a wrong sum under mixed load or a
// predicted/observed mismatch on the cold path returns an error, not a
// report.
func ingestBench(cfg tpcd.Config, name string, o ingestOpts) (*IngestReport, error) {
	bs, err := buildBenchStore(cfg, o.frames)
	if err != nil {
		return nil, err
	}
	defer bs.Close()
	ctx := context.Background()

	regions, err := sampleRegions(bs.ds, bs.w, bs.order, o.queries)
	if err != nil {
		return nil, err
	}

	rep := &IngestReport{
		Name:          name,
		Seed:          cfg.Seed,
		Strategy:      bs.order.Name,
		Cells:         len(bs.ds.BytesPerCell),
		RecordsLoaded: bs.recordsLoaded,
		PageBytes:     cfg.PageBytes,
		PoolFrames:    o.frames,
	}

	// Reference pass: sequential sums for every region, and a warm pool, so
	// both latency phases measure steady-state service time rather than
	// first-contact misses.
	refSums := make([]float64, len(regions))
	for i, r := range regions {
		if refSums[i], err = sumMeasure(ctx, bs.fs, r); err != nil {
			return nil, err
		}
	}
	check := func(i int, got float64) error {
		if math.Abs(got-refSums[i]) > 1e-9*(1+math.Abs(refSums[i])) {
			return fmt.Errorf("ingestbench: query %d: sum %v, reference %v", i, got, refSums[i])
		}
		return nil
	}

	// Phase 1: read-only baseline.
	baseLat := make([]float64, 0, o.passes*len(regions))
	t0 := time.Now()
	for p := 0; p < o.passes; p++ {
		for i, r := range regions {
			q0 := time.Now()
			got, err := sumMeasure(ctx, bs.fs, r)
			if err != nil {
				return nil, err
			}
			baseLat = append(baseLat, time.Since(q0).Seconds())
			if err := check(i, got); err != nil {
				return nil, err
			}
		}
	}
	rep.BaselineSeconds = time.Since(t0).Seconds()
	rep.BaselineReads = len(baseLat)
	rep.BaselineQPS = float64(rep.BaselineReads) / rep.BaselineSeconds
	sort.Float64s(baseLat)
	rep.ReadP50BaselineMs = 1e3 * percentile(baseLat, 0.50)
	rep.ReadP99BaselineMs = 1e3 * percentile(baseLat, 0.99)

	// Phase 2: the same stream under mixed load. The delta log and a paced
	// background compactor join; every writeEvery-th operation replaces a
	// whole cell through the log instead of reading.
	payloads, err := prepareWritePayloads(ctx, bs.fs, bs.framed, o.writeCells)
	if err != nil {
		return nil, err
	}
	deltaPath := filepath.Join(bs.dir, "bench.delta")
	dlog, err := ingest.Open(deltaPath, 0, ingest.Options{Policy: ingest.SyncBatch})
	if err != nil {
		return nil, err
	}
	defer dlog.Close()
	bs.fs.SetOverlay(dlog.Overlay())

	var writeBytes int64
	for _, p := range payloads {
		writeBytes += int64(len(p.framed))
	}
	// Budget sized so draining the backlog takes several ticks — a tick
	// must never fold the whole backlog, let alone the whole file.
	comp := ingest.NewCompactor(ingest.CompactorConfig{
		RegionCells:     64,
		MaxBytesPerTick: writeBytes/8 + 1,
	})
	var compMu sync.Mutex // serializes ticks between the loop and the drain
	maxTickCells := 0
	tick := func() error {
		compMu.Lock()
		defer compMu.Unlock()
		stats, err := comp.Tick(ctx, bs.fs, dlog)
		if err != nil {
			return err
		}
		if stats.CellsApplied > maxTickCells {
			maxTickCells = stats.CellsApplied
		}
		return nil
	}
	stop := make(chan struct{})
	compErr := make(chan error, 1)
	go func() {
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				compErr <- nil
				return
			case <-t.C:
				if err := tick(); err != nil {
					compErr <- err
					return
				}
			}
		}
	}()

	mixLat := make([]float64, 0, o.passes*len(regions))
	wi := 0
	t0 = time.Now()
	for p := 0; p < o.passes; p++ {
		for i, r := range regions {
			if (p*len(regions)+i)%o.writeEvery == o.writeEvery-1 {
				pl := payloads[wi%len(payloads)]
				wi++
				if err := dlog.Put(pl.cell, pl.framed); err != nil {
					close(stop)
					return nil, err
				}
				rep.MixedWrites++
				continue
			}
			var tally storage.PoolTally
			tctx := storage.WithPoolTally(ctx, &tally)
			q0 := time.Now()
			got, err := sumMeasure(tctx, bs.fs, r)
			if err != nil {
				close(stop)
				return nil, err
			}
			mixLat = append(mixLat, time.Since(q0).Seconds())
			rep.DeltaHitCells += tally.DeltaHits()
			if err := check(i, got); err != nil {
				close(stop)
				return nil, err
			}
		}
	}
	rep.MixedSeconds = time.Since(t0).Seconds()
	close(stop)
	if err := <-compErr; err != nil {
		return nil, err
	}
	rep.MixedReads = len(mixLat)
	rep.WriteFraction = float64(rep.MixedWrites) / float64(rep.MixedReads+rep.MixedWrites)
	rep.MixedQPS = float64(rep.MixedReads+rep.MixedWrites) / rep.MixedSeconds
	sort.Float64s(mixLat)
	rep.ReadP50MixedMs = 1e3 * percentile(mixLat, 0.50)
	rep.ReadP99MixedMs = 1e3 * percentile(mixLat, 0.99)
	if rep.ReadP99BaselineMs > 0 {
		rep.P99Ratio = rep.ReadP99MixedMs / rep.ReadP99BaselineMs
	}

	// Phase 3: drain what the paced loop has not folded yet, then reconcile
	// the cold path against the analytic model exactly.
	for dlog.PendingCells() > 0 {
		rep.DrainTicks++
		if err := tick(); err != nil {
			return nil, err
		}
	}
	rep.CompactionTicks, rep.CompactedCells, rep.CompactedBytes = comp.Ticks()
	rep.MaxTickCells = maxTickCells
	rep.MaxTickFraction = float64(maxTickCells) / float64(rep.Cells)

	n := o.reconcile
	if n > len(regions) {
		n = len(regions)
	}
	for i, r := range regions[:n] {
		if err := bs.fs.Pool().Reset(ctx); err != nil {
			return nil, err
		}
		pred := bs.fs.Layout().Query(r)
		var tally storage.PoolTally
		tctx := storage.WithPoolTally(ctx, &tally)
		got, err := sumMeasure(tctx, bs.fs, r)
		if err != nil {
			return nil, err
		}
		if err := check(i, got); err != nil {
			return nil, err
		}
		obs := tally.Stats()
		rep.PredictedPages += pred.Pages
		rep.PredictedSeeks += pred.Seeks
		rep.ObservedPageReads += obs.Misses
		rep.ObservedSeeks += tally.Seeks()
		if obs.Misses != pred.Pages || tally.Seeks() != pred.Seeks {
			return nil, fmt.Errorf("ingestbench: region %v after compaction: observed %d pages / %d seeks, model predicts %d / %d",
				r, obs.Misses, tally.Seeks(), pred.Pages, pred.Seeks)
		}
	}
	rep.ReconcileQueries = n

	// Phase 4: incremental re-clustering. A second copy of the warehouse on
	// a row-major order migrates region-by-region onto the DP-optimal snaked
	// order, worst regions first, with a pending upsert riding along.
	if err := ingestReclusterPhase(ctx, bs, regions[:n], payloads[0], rep); err != nil {
		return nil, err
	}
	return rep, nil
}

// ingestReclusterPhase builds the suboptimal store, migrates it in bounded
// ticks, and fills the recluster fields of the report.
func ingestReclusterPhase(ctx context.Context, bs *benchStore, regions []linear.Region, pending cellPayload, rep *IngestReport) error {
	dims := make([]int, bs.ds.Schema.K())
	for d := range dims {
		dims[d] = d
	}
	rowOrder, err := linear.RowMajor(bs.ds.Schema, dims)
	if err != nil {
		return err
	}
	rowPath := filepath.Join(bs.dir, "recluster.db")
	rowFS, err := storage.CreateFileStore(rowPath, rowOrder, bs.framed, int(bs.ds.Config.PageBytes), bs.frames)
	if err != nil {
		return err
	}
	defer rowFS.Close()
	shape := bs.ds.Schema.LeafCounts()
	nSupp, nTime := shape[1], shape[2]
	payload := make([]byte, bs.ds.Config.RecordBytes)
	var loadErr error
	bs.ds.EachRecord(func(li *tpcd.LineItem) bool {
		part, supp, day := li.Cell()
		binary.LittleEndian.PutUint64(payload[:8], math.Float64bits(li.ExtendedPrice))
		loadErr = rowFS.PutRecord((part*nSupp+supp)*nTime+day, payload)
		return loadErr == nil
	})
	if loadErr != nil {
		return loadErr
	}
	if err := rowFS.Pool().Flush(); err != nil {
		return err
	}

	// Predicted seeks of both layouts over the sampled stream: the starting
	// regret shows how far row-major sits from the DP target.
	rowLayout, err := storage.NewFileLayout(rowOrder, bs.framed, bs.ds.Config.PageBytes)
	if err != nil {
		return err
	}
	var rowSeeks, optSeeks int64
	for _, r := range regions {
		rowSeeks += rowLayout.Query(r).Seeks
		optSeeks += bs.fs.Layout().Query(r).Seeks
	}
	if optSeeks == 0 {
		return fmt.Errorf("ingestbench: sampled stream predicts zero seeks on the optimal layout")
	}
	rep.StartRegret = float64(rowSeeks) / float64(optSeeks)

	// A pending delta rides along: attach a log with one upsert so the
	// migration folds the freshest payload into the new clustering.
	rlog, err := ingest.Open(filepath.Join(bs.dir, "recluster.delta"), 0, ingest.Options{Policy: ingest.SyncNone})
	if err != nil {
		return err
	}
	defer rlog.Close()
	if err := rlog.Put(pending.cell, pending.framed); err != nil {
		return err
	}
	rowFS.SetOverlay(rlog.Overlay())

	total := rowOrder.Len()
	opt := storage.MigrateOptions{RegionCells: 64, MaxCellsPerTick: total/16 + 1}
	rep.ReclusterMaxTickFraction = float64(opt.MaxCellsPerTick) / float64(total)
	dst, ticks, err := storage.MigrateCtx(ctx, rowFS, filepath.Join(bs.dir, "recluster.opt.db"), bs.order, bs.frames, opt)
	if err != nil {
		return err
	}
	defer dst.Close()
	rep.ReclusterTicks = ticks

	// Converged regret: observed seeks on the migrated store, cold, against
	// the DP-optimal prediction. Content is also revalidated via the sums.
	var obsSeeks int64
	for i, r := range regions {
		if err := dst.Pool().Reset(ctx); err != nil {
			return err
		}
		var tally storage.PoolTally
		tctx := storage.WithPoolTally(ctx, &tally)
		got, err := sumMeasure(tctx, dst, r)
		if err != nil {
			return err
		}
		obsSeeks += tally.Seeks()
		var want float64
		if want, err = sumMeasure(ctx, bs.fs, r); err != nil {
			return err
		}
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			return fmt.Errorf("ingestbench: migrated store query %d: sum %v, want %v", i, got, want)
		}
	}
	rep.ConvergedRegret = float64(obsSeeks) / float64(optSeeks)
	os.Remove(filepath.Join(bs.dir, "recluster.opt.db"))
	return nil
}
