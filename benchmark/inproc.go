package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	snakes "repro"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/linear"
	"repro/internal/obsevent"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The in-process leg: once the daemon has exited, the benchmark opens the
// same store file through the public facade and makes timed calls into
// single layers around the same list entries the daemon just served. It
// measures from outside — nothing in the program under test is
// instrumented for it.

// span is one client-side span: a request the benchmark sent or a call it
// made, with the list entry that caused it.
type span struct {
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Request  int    `json:"request"` // index into the query list; -1 for calls not tied to one entry
	StartNs  int64  `json:"startNs"` // since the start of the run
	EndNs    int64  `json:"endNs"`
}

// spanLog keeps the run's spans in memory until the run ends.
type spanLog struct {
	workload string
	t0       time.Time
	spans    []span
}

func (l *spanLog) add(name string, request int, start time.Time, d time.Duration) {
	s := start.Sub(l.t0).Nanoseconds()
	l.spans = append(l.spans, span{Name: name, Workload: l.workload, Request: request, StartNs: s, EndNs: s + d.Nanoseconds()})
}

// timed runs fn, logs it as a span and returns its duration.
func (l *spanLog) timed(name string, request int, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	l.add(name, request, start, d)
	return d, err
}

// catalogFile is the part of snakestore's catalog JSON the in-process leg
// needs to reopen the store the way the daemon did.
type catalogFile struct {
	Schema      json.RawMessage `json:"schema"`
	Strategy    json.RawMessage `json:"strategy"`
	PageBytes   int             `json:"pageBytes"`
	BytesPer    []int64         `json:"bytesPerCell"`
	LoadedBytes []int64         `json:"loadedBytes"`
}

// openStore reopens the built store from its catalog with a pool of the
// given size.
func openStore(catalog, store string, frames int) (*snakes.FileStore, *catalogFile, error) {
	data, err := os.ReadFile(catalog)
	if err != nil {
		return nil, nil, err
	}
	var cat catalogFile
	if err := json.Unmarshal(data, &cat); err != nil {
		return nil, nil, fmt.Errorf("decoding %s: %w", catalog, err)
	}
	schema, err := snakes.UnmarshalSchema(cat.Schema)
	if err != nil {
		return nil, nil, err
	}
	strat, err := snakes.UnmarshalStrategy(schema, cat.Strategy)
	if err != nil {
		return nil, nil, err
	}
	fs, err := strat.OpenFileStore(store, cat.BytesPer, cat.PageBytes, frames, cat.LoadedBytes)
	return fs, &cat, err
}

// countFrames is the pool the count pass runs on: larger than the store,
// so the pass counts the layout and not the cache.
const countFrames = 4096

func noRecord(int, []byte) error { return nil }

// coldRead resets the pool and reads one region under a request tally,
// returning the pages the pool missed and the seek runs it saw.
func coldRead(fs *snakes.FileStore, r linear.Region, opt snakes.ReadOptions) (pages, seeks int64, d time.Duration, err error) {
	if err := fs.Pool().Reset(context.Background()); err != nil {
		return 0, 0, 0, err
	}
	var tally snakes.PoolTally
	ctx := snakes.WithPoolTally(context.Background(), &tally)
	start := time.Now()
	err = fs.ReadQueryOptCtx(ctx, r, opt, noRecord)
	return tally.Stats().Misses, tally.Seeks(), time.Since(start), err
}

// countResult is the paper's currency for one list: pages and seek runs per
// query, predicted by Layout.Query and observed at the pool, each query on
// a reset pool.
type countResult struct {
	n                    int
	obsPages, obsSeeks   int64
	predPages, predSeeks int64
	fragments            int64 // contiguous cell runs in the linearization: the paper's seek count
	mismatches           int
	firstMismatch        string
	coldSeq, coldPar     time.Duration // whole pass at Parallelism 1 and 2
}

// countPass replays the first n list entries cold and holds every one to
// the analytic model: the pages the pool missed and the seek runs it saw
// must equal Layout.Query exactly. With timed set it also replays the pass
// at Parallelism 1 and 2 for the cold-read layer numbers.
func countPass(fs *snakes.FileStore, list []query, n int, opt snakes.ReadOptions, timed bool, spans *spanLog) (*countResult, error) {
	if n > len(list) {
		n = len(list)
	}
	res := &countResult{n: n}
	for i := range list[:n] {
		q := &list[i]
		pred := fs.Layout().Query(q.region)
		pages, seeks, d, err := coldRead(fs, q.region, opt)
		if err != nil {
			return nil, err
		}
		spans.add("storage.read_cold", i, time.Now().Add(-d), d)
		res.obsPages += pages
		res.obsSeeks += seeks
		res.predPages += pred.Pages
		res.predSeeks += pred.Seeks
		res.fragments += int64(fs.Layout().Order().Fragments(q.region))
		if pages != pred.Pages || seeks != pred.Seeks {
			res.mismatches++
			if res.firstMismatch == "" {
				res.firstMismatch = fmt.Sprintf("region %v: observed %d pages %d seeks, Layout.Query predicts %d pages %d seeks",
					q.region, pages, seeks, pred.Pages, pred.Seeks)
			}
		}
	}
	if !timed {
		return res, nil
	}
	for _, leg := range []struct {
		par int
		sum *time.Duration
	}{{1, &res.coldSeq}, {2, &res.coldPar}} {
		o := snakes.ReadOptions{Parallelism: leg.par, Readahead: readAhead}
		for i := range list[:n] {
			_, _, d, err := coldRead(fs, list[i].region, o)
			if err != nil {
				return nil, err
			}
			*leg.sum += d
		}
	}
	return res, nil
}

// The timers below each write the layer metrics they measure into m.

// timeStorage times Layout.Query and a warm ReadQueryOptCtx around the
// first n list entries on a pool the size the daemon ran with, so the read
// sees the daemon's own hit pattern; the first pass warms the pool (and the
// plan cache) and is discarded.
func timeStorage(fs *snakes.FileStore, list []query, n int, opt snakes.ReadOptions, spans *spanLog, m map[string]float64) error {
	if n > len(list) {
		n = len(list)
	}
	var plan, read time.Duration
	var tally snakes.PoolTally
	ctx := snakes.WithPoolTally(context.Background(), &tally)
	for pass := 0; pass < 2; pass++ {
		for i := range list[:n] {
			r := list[i].region
			if pass == 0 {
				if err := fs.ReadQueryOptCtx(context.Background(), r, opt, noRecord); err != nil {
					return err
				}
				continue
			}
			d, _ := spans.timed("storage.plan", i, func() error { fs.Layout().Query(r); return nil })
			plan += d
			d, err := spans.timed("storage.read", i, func() error { return fs.ReadQueryOptCtx(ctx, r, opt, noRecord) })
			if err != nil {
				return err
			}
			read += d
		}
	}
	m["storage.plan_us"] = us(plan) / float64(n)
	m["storage.read_us"] = us(read) / float64(n)
	if opt.Parallelism > 1 { // the plan cache belongs to the parallel read path
		m["storage.plan_cache_hit_ratio"] = ratio(float64(tally.PlanHits()), float64(tally.PlanHits()+tally.PlanMisses()))
	}
	return nil
}

// timeScrub times the checksum layer alone — every page of the file read
// through OpenPageFile + NewChecksumFile — and the full scrub above it.
func timeScrub(fs *snakes.FileStore, store string, pageBytes int, spans *spanLog, m map[string]float64) error {
	pf, err := storage.OpenPageFile(store, pageBytes)
	if err != nil {
		return err
	}
	defer pf.Close()
	cf, err := storage.NewChecksumFile(pf)
	if err != nil {
		return err
	}
	buf := make([]byte, cf.PageSize())
	d, err := spans.timed("storage.checksum_read", -1, func() error {
		for p := int64(0); p < cf.Pages(); p++ {
			if err := cf.ReadPage(p, buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["storage.checksum_read_us_per_page"] = us(d) / float64(cf.Pages())

	var rep *snakes.VerifyReport
	d, err = spans.timed("storage.verify", -1, func() (err error) {
		rep, err = fs.VerifyCtx(context.Background())
		return err
	})
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("in-process scrub found %d problem(s): %v", len(rep.Problems), rep.Problems[0].String())
	}
	m["storage.verify_pages_per_s"] = float64(rep.Pages) / d.Seconds()
	return nil
}

// timeSetupLayers times the two library calls `snakestore optimize` and
// every store open spend their time in: the lattice DP and the
// materialization of the path into a cell order.
func timeSetupLayers(f *fixture, w *workload.Workload, spans *spanLog, m map[string]float64) error {
	const dpRuns, matRuns = 200, 5
	var res core.Result
	d, err := spans.timed("core.dp", -1, func() (err error) {
		for i := 0; i < dpRuns; i++ {
			if res, err = core.Optimal(w); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["core.dp_us"] = us(d) / dpRuns
	d, err = spans.timed("linear.materialize", -1, func() error {
		for i := 0; i < matRuns; i++ {
			if _, err := linear.FromPath(f.ds.Schema, res.Path, true); err != nil {
				return err
			}
		}
		return nil
	})
	m["linear.materialize_ms"] = ms(d) / matRuns
	return err
}

// timeTelemetry prices one span on an active trace and one wide-event
// publish: what every traced request pays per span and every request pays
// once.
func timeTelemetry(n int, spans *spanLog, m map[string]float64) {
	rec := trace.NewRecorder(trace.Config{SampleEvery: 1, Capacity: 1, RetainedCapacity: 1, MaxSpans: n})
	ctx, tr := rec.Start(context.Background(), "benchmark")
	d, _ := spans.timed("trace.span", -1, func() error {
		for i := 0; i < n; i++ {
			trace.StartLeaf(ctx, trace.KindPageLoad, "").End()
		}
		return nil
	})
	tr.Finish(nil)
	m["trace.span_ns"] = float64(d.Nanoseconds()) / float64(n)

	ring := obsevent.NewRing(1024)
	ev := &obsevent.Event{Handler: "query", Status: 200}
	d, _ = spans.timed("obsevent.publish", -1, func() error {
		for i := 0; i < n; i++ {
			ring.Publish(ev)
		}
		return nil
	})
	m["obsevent.publish_ns"] = float64(d.Nanoseconds()) / float64(n)
}

// timeIngest prices the write path's two library calls on a scratch copy
// of the store: Log.Put under the daemon's flush policy, and one
// Compactor.Tick folding a second's worth of posts into the base file.
func timeIngest(f *fixture, dir, catalog, store string, seed int64, rate int, spans *spanLog, m map[string]float64) error {
	scratch := filepath.Join(dir, "scratch.db")
	defer os.Remove(scratch)
	defer os.Remove(ingest.DeltaPath(scratch))
	if err := copyFile(store, scratch); err != nil {
		return err
	}
	fs, _, err := openStore(catalog, scratch, countFrames)
	if err != nil {
		return err
	}
	defer fs.Close()
	log, err := ingest.Open(ingest.DeltaPath(scratch), 0, ingest.Options{Policy: ingest.SyncBatch})
	if err != nil {
		return err
	}
	defer log.Close()
	fs.SetOverlay(log.Overlay())
	comp := ingest.NewCompactor(ingest.CompactorConfig{})

	const ticks = 5
	rng := rand.New(rand.NewSource(seed))
	var put, tick time.Duration
	puts := 0
	for t := 0; t < ticks; t++ {
		for i := 0; i < rate*ingestBatchCells; i++ {
			cell := f.nonEmpty[rng.Intn(len(f.nonEmpty))]
			rows, _ := f.rewriteCell(cell, t+1, rng)
			records := make([][]byte, len(rows))
			for j, r := range rows {
				records[j] = []byte(r)
			}
			framed := storage.FrameRecords(records...)
			d, err := spans.timed("ingest.put", -1, func() error { return log.Put(cell, framed) })
			if err != nil {
				return err
			}
			put += d
			puts++
		}
		d, err := spans.timed("ingest.compaction_tick", -1, func() error {
			_, err := comp.Tick(context.Background(), fs, log)
			return err
		})
		if err != nil {
			return err
		}
		tick += d
	}
	m["ingest.put_us"] = us(put) / float64(puts)
	m["ingest.compaction_tick_ms"] = ms(tick) / ticks
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
