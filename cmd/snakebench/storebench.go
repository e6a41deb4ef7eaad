package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/lattice"
	"repro/internal/linear"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchReport is the machine-readable result of one store benchmark run,
// written as BENCH_<name>.json so successive runs form a comparable
// trajectory. It carries both sides of the paper's cost model: the analytic
// page/seek prediction summed over the executed queries and the physical
// reads/seeks the buffer pool actually performed, measured per query by a
// request-local tally.
type BenchReport struct {
	Name     string `json:"name"`
	Seed     uint64 `json:"seed"`
	Full     bool   `json:"full"`
	Strategy string `json:"strategy"`

	Cells         int   `json:"cells"`
	RecordsLoaded int64 `json:"recordsLoaded"`
	PageBytes     int64 `json:"pageBytes"`
	PoolFrames    int   `json:"poolFrames"`

	Queries          int     `json:"queries"`
	RecordsRead      int64   `json:"recordsRead"`
	WallSeconds      float64 `json:"wallSeconds"`
	QueriesPerSecond float64 `json:"queriesPerSecond"`

	LatencyMsMean float64 `json:"latencyMsMean"`
	LatencyMsP50  float64 `json:"latencyMsP50"`
	LatencyMsP90  float64 `json:"latencyMsP90"`
	LatencyMsP99  float64 `json:"latencyMsP99"`
	LatencyMsMax  float64 `json:"latencyMsMax"`

	PredictedPages    int64 `json:"predictedPages"`
	ObservedPageReads int64 `json:"observedPageReads"`
	PredictedSeeks    int64 `json:"predictedSeeks"`
	ObservedSeeks     int64 `json:"observedSeeks"`

	Pool storage.PoolStats `json:"pool"`

	// SpanSummary breaks the measured stream down by traced span kind:
	// every query runs under a SampleEvery-1 trace, so the totals account
	// for where the wall time of the read path actually went.
	SpanSummary []SpanKindSummary `json:"spanSummary,omitempty"`
}

// Summary is the one-line human rendering of the report.
func (r *BenchReport) Summary() string {
	return fmt.Sprintf("%d queries in %.2fs (%.0f q/s), latency ms p50=%.3f p99=%.3f, pages predicted=%d read=%d, seeks predicted=%d observed=%d",
		r.Queries, r.WallSeconds, r.QueriesPerSecond,
		r.LatencyMsP50, r.LatencyMsP99,
		r.PredictedPages, r.ObservedPageReads,
		r.PredictedSeeks, r.ObservedSeeks)
}

// WriteFile writes the report as indented JSON, atomically.
func (r *BenchReport) WriteFile(path string) error {
	return writeReportJSON(path, r)
}

// benchStore is a generated warehouse loaded into a paged store in a temp
// directory, plus everything needed to reopen it cold and sample queries
// against it. It is the shared substrate of the store, ingest and obs
// benchmarks.
type benchStore struct {
	ds     *tpcd.Dataset
	w      *workload.Workload
	order  *linear.Order
	framed []int64
	dir    string
	path   string
	frames int
	loaded []int64

	fs            *storage.FileStore
	recordsLoaded int64
}

// buildBenchStore generates the warehouse, picks the snaked optimal
// clustering for the featured workload, loads a paged store in a temp
// directory, and reopens it so b.fs starts on a cold pool.
func buildBenchStore(cfg tpcd.Config, frames int) (*benchStore, error) {
	if cfg.RecordBytes < 8 {
		return nil, fmt.Errorf("storebench: RecordBytes = %d cannot hold the 8-byte measure", cfg.RecordBytes)
	}
	ds, err := tpcd.Build(cfg)
	if err != nil {
		return nil, err
	}
	w, err := ds.Workload(tpcd.PaperWorkload7())
	if err != nil {
		return nil, err
	}
	opt, err := core.Optimal(w)
	if err != nil {
		return nil, err
	}
	o, err := linear.FromPath(ds.Schema, opt.Path, true)
	if err != nil {
		return nil, err
	}

	b := &benchStore{ds: ds, w: w, order: o, framed: paddedBytes(ds), frames: frames}
	b.dir, err = os.MkdirTemp("", "snakebench")
	if err != nil {
		return nil, err
	}
	b.path = filepath.Join(b.dir, "bench.db")
	fs, err := storage.CreateFileStore(b.path, o, b.framed, int(cfg.PageBytes), frames)
	if err != nil {
		os.RemoveAll(b.dir)
		return nil, err
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
		b.recordsLoaded++
		return true
	})
	if loadErr != nil {
		fs.Close()
		os.RemoveAll(b.dir)
		return nil, loadErr
	}

	// Reopen so the query stream starts on a cold pool: loading itself goes
	// through the pool and would otherwise pre-warm every page.
	b.loaded = fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		os.RemoveAll(b.dir)
		return nil, err
	}
	if err := b.reopenCold(); err != nil {
		os.RemoveAll(b.dir)
		return nil, err
	}
	return b, nil
}

// reopenCold returns the store to a cold buffer pool, so the next query
// stream measures physical reads. An open store is reset in place
// (BufferPool.Reset drops every frame; prepared plans survive, exactly as
// they would across quiet periods of a long-running server); a closed one is
// reopened from the file.
func (b *benchStore) reopenCold() error {
	if b.fs != nil {
		return b.fs.Pool().Reset(context.Background())
	}
	fs, err := storage.OpenFileStore(b.path, b.order, b.framed, int(b.ds.Config.PageBytes), b.frames, b.loaded)
	if err != nil {
		return err
	}
	b.fs = fs
	return nil
}

// Close releases the store and its temp directory.
func (b *benchStore) Close() {
	if b.fs != nil {
		b.fs.Close()
		b.fs = nil
	}
	os.RemoveAll(b.dir)
}

// storeBench runs the end-to-end benchmark: generate the warehouse, pick
// the snaked optimal clustering for the featured workload, load a paged
// store in a temp directory, then execute a workload-sampled query stream
// against a cold pool, timing every query and comparing the analytic
// page/seek prediction with the traffic the pool actually saw.
func storeBench(cfg tpcd.Config, name string, queries, frames int) (*BenchReport, error) {
	if queries <= 0 {
		return nil, fmt.Errorf("storebench: need a positive query count, got %d", queries)
	}
	bs, err := buildBenchStore(cfg, frames)
	if err != nil {
		return nil, err
	}
	defer bs.Close()
	fs := bs.fs

	rep := &BenchReport{
		Name:          name,
		Seed:          cfg.Seed,
		Strategy:      bs.order.Name,
		Cells:         len(bs.ds.BytesPerCell),
		RecordsLoaded: bs.recordsLoaded,
		PageBytes:     cfg.PageBytes,
		PoolFrames:    frames,
	}

	regions, err := sampleRegions(bs.ds, bs.w, bs.order, queries)
	if err != nil {
		return nil, err
	}
	// MaxSpans far above the serving default: a bench query may load
	// thousands of pages, and a capped trace would silently undercount the
	// span summary (the daemon wants bounded memory; the bench wants truth).
	rec := trace.NewRecorder(trace.Config{SampleEvery: 1, Capacity: 1, RetainedCapacity: 1, MaxSpans: 1 << 20})
	spans := spanAccumulator{}
	latencies := make([]float64, 0, len(regions))
	start := time.Now()
	for _, r := range regions {
		pred := fs.Layout().Query(r)
		var tally storage.PoolTally
		ctx := storage.WithPoolTally(context.Background(), &tally)
		ctx, tr := rec.Start(ctx, "bench-query")
		t0 := time.Now()
		err := readRegion(ctx, fs, r, func(cell int, record []byte) error {
			rep.RecordsRead++
			return nil
		})
		tr.Finish(err)
		if err != nil {
			return nil, err
		}
		spans.add(tr.Spans())
		latencies = append(latencies, time.Since(t0).Seconds())
		rep.PredictedPages += pred.Pages
		rep.PredictedSeeks += pred.Seeks
		rep.ObservedPageReads += tally.Stats().Misses
		rep.ObservedSeeks += tally.Seeks()
	}
	rep.WallSeconds = time.Since(start).Seconds()
	rep.Queries = len(regions)
	if rep.WallSeconds > 0 {
		rep.QueriesPerSecond = float64(rep.Queries) / rep.WallSeconds
	}
	rep.Pool = fs.Pool().Stats()
	rep.SpanSummary = spans.summaries()

	sort.Float64s(latencies)
	var sum float64
	for _, l := range latencies {
		sum += l
	}
	ms := func(s float64) float64 { return s * 1e3 }
	rep.LatencyMsMean = ms(sum / float64(len(latencies)))
	rep.LatencyMsP50 = ms(percentile(latencies, 0.50))
	rep.LatencyMsP90 = ms(percentile(latencies, 0.90))
	rep.LatencyMsP99 = ms(percentile(latencies, 0.99))
	rep.LatencyMsMax = ms(latencies[len(latencies)-1])
	return rep, nil
}

// sampleRegions draws n non-vacuous query regions from the workload: a
// class by its probability, then uniform nodes within the class — the same
// scheme the measurement experiments use. Sampling is deterministic in the
// dataset's seed. Vacuous regions (selecting no bytes) are resampled under
// a bounded budget; exhausting it is an error, never a silent shortfall.
func sampleRegions(ds *tpcd.Dataset, w *workload.Workload, o *linear.Order, n int) ([]linear.Region, error) {
	regions, _, err := sampleRegionsWithClasses(ds, w, o, n)
	return regions, err
}

// sampleRegionsWithClasses is sampleRegions plus the class each region was
// drawn from, so the adaptive benchmark can replay the same stream into the
// controller's workload estimator.
func sampleRegionsWithClasses(ds *tpcd.Dataset, w *workload.Workload, o *linear.Order, n int) ([]linear.Region, []lattice.Point, error) {
	classes := w.Support()
	if len(classes) == 0 {
		return nil, nil, fmt.Errorf("storebench: workload has empty support")
	}
	cum := make([]float64, len(classes))
	total := 0.0
	for i, c := range classes {
		total += w.Prob(c)
		cum[i] = total
	}
	rng := rand.New(rand.NewSource(int64(ds.Config.Seed)))
	layout, err := storage.NewFileLayout(o, paddedBytes(ds), ds.Config.PageBytes)
	if err != nil {
		return nil, nil, err
	}
	out := make([]linear.Region, 0, n)
	drawn := make([]lattice.Point, 0, n)
	budget := 100 * n
	for len(out) < n {
		if budget--; budget < 0 {
			return nil, nil, fmt.Errorf("storebench: could not sample %d non-empty queries (got %d); dataset too sparse", n, len(out))
		}
		u := rng.Float64() * total
		ci := sort.SearchFloat64s(cum, u)
		if ci == len(classes) {
			ci--
		}
		c := classes[ci]
		nodes := make([]int, ds.Schema.K())
		for d := range nodes {
			nodes[d] = rng.Intn(ds.Schema.Dims[d].NodesAt(c[d]))
		}
		r := linear.ClassRegion(o, c, nodes)
		if layout.Query(r).Bytes == 0 {
			continue // the paper's queries always select data; skip vacuous ones
		}
		out = append(out, r)
		drawn = append(drawn, c)
	}
	return out, drawn, nil
}

// paddedBytes is the framed per-cell size the benchmark store reserves —
// sampleRegions uses it so its vacuity check matches the loaded store.
func paddedBytes(ds *tpcd.Dataset) []int64 {
	framed := make([]int64, len(ds.BytesPerCell))
	for i, b := range ds.BytesPerCell {
		framed[i] = (b / int64(ds.Config.RecordBytes)) * storage.FrameSize(ds.Config.RecordBytes)
	}
	return framed
}

// percentile returns the p-quantile of sorted (nearest-rank on the sorted
// slice, interpolation-free).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}

// decodeMeasure reads the benchmark record's 8-byte measure.
func decodeMeasure(rec []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(rec[:8]))
}

// readRegion plans r and reads its records in disk order.
func readRegion(ctx context.Context, fs *storage.FileStore, r linear.Region, fn func(cell int, record []byte) error) error {
	p, err := fs.Plan(ctx, r)
	if err != nil {
		return err
	}
	return fs.ReadPlanCtx(ctx, p, fn)
}

// sumMeasure totals the measure of r's records in disk order.
func sumMeasure(ctx context.Context, fs *storage.FileStore, r linear.Region) (float64, error) {
	total := 0.0
	err := readRegion(ctx, fs, r, func(_ int, rec []byte) error {
		total += decodeMeasure(rec)
		return nil
	})
	return total, err
}
