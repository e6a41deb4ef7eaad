package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	snakes "repro"
	"repro/internal/workload"
)

// runConfig is how one workload run is measured.
type runConfig struct {
	seed   int64
	warm   time.Duration // loaded phase before the window, discarded
	window time.Duration // measured window
	setups int           // set-ups per run; setup_s is their median
	trace  bool          // also run the traced pass and the timed in-process leg
	cpu    int           // the processor the run is pinned to, for the stamp
}

// result is one workload's run.
type result struct {
	Workload  string             `json:"workload"`
	Flags     []string           `json:"serveFlags"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
	// Spread is the noise seen inside the run for the timed end-to-end
	// metrics: interquartile range over median across the window's slices
	// (or across the set-ups). -compare uses it to tell a regression from
	// an unresolved difference.
	Spread map[string]float64 `json:"spread"`

	spans []span
}

// storeFiles names one built store.
type storeFiles struct{ catalog, store string }

// setupTimes are the three steps of one set-up.
type setupTimes struct{ optimize, build, start time.Duration }

func (s setupTimes) total() time.Duration { return s.optimize + s.build + s.start }

// setUp runs optimize → build → serve once on fresh files.
func setUp(sb *sandbox, csv string, f *fixture, w *workload.Workload, wl workloadDef, tag string) (storeFiles, *daemon, setupTimes, error) {
	files := storeFiles{catalog: "cat-" + tag + ".json", store: "store-" + tag + ".db"}
	var st setupTimes
	var err error
	if st.optimize, err = sb.run("optimize", "-dims", f.dimSpec, "-workload", workloadSpec(w),
		"-page", strconv.FormatInt(f.cfg.Warehouse.PageBytes, 10), "-catalog", files.catalog); err != nil {
		return files, nil, st, err
	}
	if st.build, err = sb.run("build", "-catalog", files.catalog, "-csv", csv, "-store", files.store); err != nil {
		return files, nil, st, err
	}
	d, start, err := sb.serve(files.catalog, files.store, wl.serveFlags()...)
	st.start = start
	return files, d, st, err
}

// removeStore deletes a built store and its sidecars.
func (sb *sandbox) removeStore(files storeFiles) {
	for _, name := range []string{files.catalog, files.store, snakes.ParityPath(files.store), snakes.DeltaPath(files.store)} {
		os.Remove(filepath.Join(sb.dir, name))
	}
}

// storeBytes is the space the store occupies: page file, parity sidecar
// and delta log.
func (sb *sandbox) storeBytes(files storeFiles) int64 {
	var total int64
	for _, name := range []string{files.store, snakes.ParityPath(files.store), snakes.DeltaPath(files.store)} {
		if fi, err := os.Stat(filepath.Join(sb.dir, name)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// tracedResult is what the traced pass measured.
type tracedResult struct {
	noSum, withSum []float64 // per-request latencies on the shipped daemon, ms
	overhead       float64   // extra latency of a request on the fully traced daemon, ms
	records        int64     // records the shipped daemon's with-sum replay returned
	before, after  *scrape   // the fully traced daemon's /metrics around its replays
	attempted      int
}

// tracedPass starts two fresh daemons on the built store, one as shipped
// (1 request in 16 traced), one tracing every request, and replays the first
// n list entries from one client: first without sum on each daemon, which
// also warms its pool, then with sum, alternating between the two daemons
// request by request so that a drift of the box's speed lands on both alike.
// Whichever daemon answers a region second finds it in the processor's
// caches, so the daemons also take turns going first, and the tracing
// overhead is the mean of the two orders' median differences. Every request
// is logged as a client span.
func tracedPass(sb *sandbox, files storeFiles, wl workloadDef, list []query, n int, checkSum bool, spans *spanLog, fails *failures) (*tracedResult, error) {
	if n > len(list) {
		n = len(list)
	}
	shipped, _, err := sb.serve(files.catalog, files.store, wl.serveFlags()...)
	if err != nil {
		return nil, err
	}
	defer shipped.stop()
	traced, _, err := sb.serve(files.catalog, files.store, append(wl.serveFlags(), "-trace-sample", "1")...)
	if err != nil {
		return nil, err
	}
	defer traced.stop()
	cs, ct := newClient(), newClient()
	defer cs.CloseIdleConnections()
	defer ct.CloseIdleConnections()

	res := &tracedResult{attempted: 4 * n}
	one := func(c *http.Client, d *daemon, i int, withSum bool, name string) (float64, int64, bool) {
		start := time.Now()
		rep, lat, err := ask(c, d.base, &list[i], withSum, checkSum)
		spans.add(name, i, start, lat)
		if err != nil {
			fails.add(err)
			return 0, 0, false
		}
		return ms(lat), rep.Records, true
	}
	if res.before, err = scrapeMetrics(ct, traced.base); err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		if lat, _, ok := one(cs, shipped, i, false, "client.query_nosum"); ok {
			res.noSum = append(res.noSum, lat)
		}
	}
	for i := 0; i < n; i++ {
		one(ct, traced, i, false, "client.query_nosum_traced")
	}
	var diff [2][]float64 // traced − shipped, by which daemon went first
	for i := 0; i < n; i++ {
		var ls, lt float64
		var records int64
		var okS, okT bool
		if i%2 == 0 {
			ls, records, okS = one(cs, shipped, i, true, "client.query")
			lt, _, okT = one(ct, traced, i, true, "client.query_traced")
		} else {
			lt, _, okT = one(ct, traced, i, true, "client.query_traced")
			ls, records, okS = one(cs, shipped, i, true, "client.query")
		}
		if okS && okT {
			res.withSum = append(res.withSum, ls)
			res.records += records
			diff[i%2] = append(diff[i%2], lt-ls)
		}
	}
	res.overhead = (median(diff[0]) + median(diff[1])) / 2
	if res.after, err = scrapeMetrics(ct, traced.base); err != nil {
		return nil, err
	}
	return res, nil
}

// runWorkload measures one workload end to end: set-up, loaded window,
// the durability epilogue (mixed-rw), the count pass, and — with rc.trace —
// the traced pass and the timed in-process leg.
func runWorkload(sb *sandbox, f *fixture, csv string, wl workloadDef, rc runConfig) (*result, error) {
	res := &result{Workload: wl.Name, Flags: wl.serveFlags(), Metrics: map[string]float64{}, Spread: map[string]float64{}}
	m := res.Metrics
	fails := &failures{}
	spans := &spanLog{workload: wl.Name, t0: time.Now()}
	attempted := 0

	w, err := f.ds.Workload(wl.mix())
	if err != nil {
		return nil, err
	}
	// The query list depends on the seed and on nothing else: w7-warm,
	// w7-cold, w7-drift and mixed-rw replay the same regions.
	rng := rand.New(rand.NewSource(rc.seed))
	var list []query
	if wl.Point {
		list = f.pointList(rng, f.cfg.ListLen)
	} else {
		w7, err := f.ds.Workload(workloads[0].mix())
		if err != nil {
			return nil, err
		}
		if list, err = f.classList(w7, rng, f.cfg.ListLen); err != nil {
			return nil, err
		}
	}

	// Set-up, several times over: each is optimize + build (with parity) +
	// serve until /healthz is 200, on fresh files. The last one's daemon
	// serves the run.
	var files storeFiles
	var d *daemon
	var opt, build, start, total []float64
	for i := 0; i < rc.setups; i++ {
		var st setupTimes
		files, d, st, err = setUp(sb, csv, f, w, wl, strconv.Itoa(i))
		if err != nil {
			return nil, err
		}
		opt, build, start = append(opt, st.optimize.Seconds()), append(build, st.build.Seconds()), append(start, st.start.Seconds())
		total = append(total, st.total().Seconds())
		if i < rc.setups-1 {
			d.stop()
			sb.removeStore(files)
		}
	}
	m["setup_s"], res.Spread["setup_s"] = median(total), spread(total)
	m["serve.optimize_s"], m["serve.build_s"], m["serve.start_s"] = median(opt), median(build), median(start)

	// Loaded phase.
	plan := loadPlan{
		base: d.base, list: list, readers: wl.Readers, checkSum: wl.IngestRate == 0,
		rate: wl.IngestRate, warm: rc.warm, window: rc.window, pid: d.cmd.Process.Pid,
	}
	ledger := &ackLedger{cents: map[int]int64{}, inDoubt: map[int]bool{}}
	if wl.IngestRate > 0 {
		n := int((rc.warm+rc.window).Seconds()*float64(wl.IngestRate)) + 1
		plan.batches = prepareBatches(f, rand.New(rand.NewSource(rc.seed+1)), n)
	}
	spinBefore := boxSpin()
	load, err := runLoad(plan, fails, ledger)
	if err != nil {
		return nil, err
	}
	m["loadgen.box_spin_ms"] = ms(min(spinBefore, boxSpin()))
	attempted += load.attempted
	bytesAtEnd := sb.storeBytes(files)

	// The timed end-to-end metrics are taken per half-second slice, and the
	// quartile of the slices on the undisturbed side is reported (sliceWidth).
	counts, qps, mids, p50s, p99s := sliceStats(load.queries, rc.warm, rc.window)
	nq := float64(len(load.queries))
	if nq == 0 {
		return nil, fmt.Errorf("%s: no query completed inside the measured window", wl.Name)
	}
	var latSum float64
	for _, s := range load.queries {
		latSum += s.lat.Seconds()
	}
	m["query_throughput_qps"], res.Spread["query_throughput_qps"] = fastQuartile(qps, true), spread(qps)
	m["query_mid_ms"], res.Spread["query_mid_ms"] = fastQuartile(mids, false), spread(mids)
	m["query_p50_ms"], res.Spread["query_p50_ms"] = fastQuartile(p50s, false), spread(p50s)
	m["query_p99_ms"], res.Spread["query_p99_ms"] = fastQuartile(p99s, false), spread(p99s)
	m["loadgen.p99_slice_samples"] = sortedCopy(counts)[0]
	m["server_rss_mb"] = load.procEnd.hwmMiB
	m["store_bytes_per_user_byte"] = float64(bytesAtEnd) / float64(f.userBytes)

	// Layer numbers of the window: /metrics deltas between its two edges,
	// reply fields, /proc.
	b, e := load.before, load.end
	hits, misses := delta(b, e, "snakestore_pool_hits_total"), delta(b, e, "snakestore_pool_misses_total")
	m["storage.pool_hit_ratio"] = ratio(hits, hits+misses)
	m["storage.pool_evictions_per_query"] = delta(b, e, "snakestore_pool_evictions_total") / nq
	m["storage.pages_read_per_query"] = float64(load.pagesRead) / nq
	m["storage.seeks_per_query"] = float64(load.seeks) / nq
	m["storage.single_flight_waits"] = delta(b, e, "snakestore_pool_single_flight_waits_total")
	m["storage.retries"] = delta(b, e, "snakestore_pool_retries_total")
	m["serve.admission_rejected"] = delta(b, e, "snakestore_admission_rejected_total")
	m["serve.admission_wait_us"] = 1e6 * ratio(delta(b, e, "snakestore_trace_span_seconds_sum", `kind="admission"`),
		delta(b, e, "snakestore_trace_span_seconds_count", `kind="admission"`))
	for _, code := range []string{"400", "404", "409"} {
		m["serve.http_4xx"] += delta(b, e, "snakestore_http_responses_total", `code="`+code+`"`)
	}
	for _, code := range []string{"500", "503", "504", "other"} {
		m["serve.http_5xx"] += delta(b, e, "snakestore_http_responses_total", `code="`+code+`"`)
	}
	m["serve.slow_queries"] = delta(b, e, "snakestore_slow_query_total")
	m["serve.cpu_ms_per_query"] = (load.procEnd.cpuSeconds - load.procBefore.cpuSeconds) * 1e3 / nq
	m["obsevent.overwritten"] = delta(b, e, "snakestore_event_overwritten_total")
	m["trace.reconcile_ratio"] = delta(b, e, "snakestore_http_request_seconds_sum", `handler="query"`) / latSum
	m["loadgen.late_ms_max"] = ms(load.lateMax)
	m["loadgen.cpu_frac"] = load.genCPU / (rc.window.Seconds() * float64(runtime.NumCPU()))
	m["loadgen.samples"] = nq + float64(len(load.posts))
	scrapes := load.scrapes

	if wl.IngestRate > 0 {
		post := make([]float64, len(load.posts))
		for i, s := range load.posts {
			post[i] = ms(s.lat)
		}
		sort.Float64s(post)
		m["ingest_p50_ms"] = quantile(post, 0.5)
		m["ingest.post_p95_ms"] = quantile(post, 0.95)
		m["ingest.rejected"] = delta(b, e, "snakestore_ingest_rejected_total")
		m["ingest.delta_hit_cells_per_query"] = float64(load.deltaCells) / nq
		m["ingest.plan_invalidations"] = delta(b, e, "snakestore_plan_cache_invalidations_total")
		m["ingest.compaction_ticks"] = delta(b, e, "snakestore_compaction_ticks_total")
		m["ingest.compacted_bytes"] = delta(b, e, "snakestore_compaction_bytes_total")
		m["ingest.compaction_lag_s_max"] = load.lagMax
		m["ingest.pending_cells_max"] = float64(load.pendingMax)
		// Bytes that reached storage for each byte the client posted: the
		// WAL record (payload + framing) once, then the base pages the
		// compactor wrote back.
		user := delta(b, e, "snakestore_ingest_bytes_total")
		walBytes := user + 12*delta(b, e, "snakestore_ingest_puts_total")
		pageBytes := delta(b, e, "snakestore_pool_writes_total") * float64(f.cfg.Warehouse.PageBytes)
		m["ingest.write_amp"] = ratio(walBytes+pageBytes, user)
		if err := durabilityEpilogue(sb, f, files, wl, d, ledger, fails, &attempted); err != nil {
			return nil, err
		}
	} else {
		d.stop()
	}

	// Traced pass. On the shipped daemon the with-sum replay minus the
	// sum-less one is the sum kernel, and the sum-less latency minus the
	// in-process read is what HTTP, middleware, planning, admission, events
	// and JSON cost. The fully traced daemon's extra latency on the same
	// request is the price of full sampling, and its /metrics carry complete
	// page_load and fragment span totals.
	var noSumMeanUs float64 // mean single-client latency without sum on the shipped daemon
	if rc.trace {
		tp, err := tracedPass(sb, files, wl, list, f.cfg.ReplayN, plan.checkSum, spans, fails)
		if err != nil {
			return nil, err
		}
		attempted += tp.attempted
		scrapes = append(scrapes, tp.before.took, tp.after.took)
		noSumMeanUs = mean(tp.noSum) * 1e3
		m["serve.sum_us_per_krecord"] = ratio((mean(tp.withSum)-mean(tp.noSum))*1e3*float64(len(tp.withSum)), float64(tp.records)/1e3)
		m["trace.full_sampling_overhead_frac"] = ratio(tp.overhead, median(tp.withSum))
		b, e := tp.before, tp.after
		m["storage.page_load_us"] = 1e6 * ratio(delta(b, e, "snakestore_trace_span_seconds_sum", `kind="page_load"`),
			delta(b, e, "snakestore_trace_span_seconds_count", `kind="page_load"`))
		if wl.ReadParallel > 1 {
			m["storage.fragment_us"] = 1e6 * ratio(delta(b, e, "snakestore_fragment_seconds_sum"), delta(b, e, "snakestore_fragment_seconds_count"))
		}
	}
	sc := make([]float64, len(scrapes))
	for i, s := range scrapes {
		sc[i] = ms(s)
	}
	m["obs.scrape_ms"] = mean(sc)

	// In-process leg on the store file the daemon just closed.
	catalog, store := filepath.Join(sb.dir, files.catalog), filepath.Join(sb.dir, files.store)
	ropt := snakes.ReadOptions{Parallelism: wl.ReadParallel, Readahead: readAhead}
	big, cat, err := openStore(catalog, store, countFrames)
	if err != nil {
		return nil, err
	}
	defer big.Close()
	cp, err := countPass(big, list, f.cfg.CountN, ropt, rc.trace, spans)
	if err != nil {
		return nil, err
	}
	attempted += cp.n
	for i := 0; i < cp.mismatches; i++ {
		fails.add(fmt.Errorf("count pass: %s", cp.firstMismatch))
	}
	m["cold_pages_per_query"] = float64(cp.obsPages) / float64(cp.n)
	m["cold_seeks_per_query"] = float64(cp.obsSeeks) / float64(cp.n)
	m["storage.pages_predicted_per_query"] = float64(cp.predPages) / float64(cp.n)
	m["storage.seeks_predicted_per_query"] = float64(cp.predSeeks) / float64(cp.n)
	m["storage.model_page_ratio"] = float64(cp.obsPages) / float64(cp.predPages)
	m["storage.model_seek_ratio"] = float64(cp.obsSeeks) / float64(cp.predSeeks)
	m["linear.fragments_per_query"] = float64(cp.fragments) / float64(cp.n)

	if rc.trace {
		m["storage.read_cold_us_per_page"] = us(cp.coldSeq) / float64(cp.obsPages)
		m["storage.parallel_speedup"] = cp.coldSeq.Seconds() / cp.coldPar.Seconds()
		mirror := big
		if wl.Frames != countFrames {
			if mirror, _, err = openStore(catalog, store, wl.Frames); err != nil {
				return nil, err
			}
			defer mirror.Close()
		}
		if err := timeStorage(mirror, list, f.cfg.ReplayN, ropt, spans, m); err != nil {
			return nil, err
		}
		m["serve.http_overhead_us"] = noSumMeanUs - m["storage.read_us"]
		if err := timeScrub(big, store, cat.PageBytes, spans, m); err != nil {
			return nil, err
		}
		if err := timeSetupLayers(f, w, spans, m); err != nil {
			return nil, err
		}
		timeTelemetry(f.cfg.MicroN, spans, m)
		if wl.IngestRate > 0 {
			if err := timeIngest(f, sb.dir, catalog, store, rc.seed, wl.IngestRate, spans, m); err != nil {
				return nil, err
			}
		}
	}
	sb.removeStore(files)

	res.Attempted, res.Failed, res.Failures = attempted, fails.n, fails.first
	m["failed_frac"] = float64(fails.n) / float64(attempted)
	res.spans = spans.spans
	return res, nil
}

// durabilityEpilogue runs once the writer has stopped: every cell whose
// post was acknowledged is re-queried and must carry the acknowledged
// version; then the daemon is killed without warning and restarted on the
// same files, which replays the delta log, and every cell is re-queried
// again; then the drained store must pass `snakestore verify`. A lost
// acknowledged write or a mismatch is a failed operation. The daemon is
// stopped when it returns.
//
// The daemon acknowledges a post once its WAL record is written; under the
// shipped -ingest-sync batch it fsyncs every 256 KiB. SIGKILL keeps the
// operating system's cache, so this checks process-crash durability: what
// the shipped policy promises, not survival of power loss.
func durabilityEpilogue(sb *sandbox, f *fixture, files storeFiles, wl workloadDef, d *daemon, ledger *ackLedger, fails *failures, attempted *int) error {
	cells := make([]int, 0, len(ledger.cents))
	for cell := range ledger.cents {
		if !ledger.inDoubt[cell] {
			cells = append(cells, cell)
		}
	}
	sort.Ints(cells)
	requery := func(base, when string) {
		c := newClient()
		defer c.CloseIdleConnections()
		for _, cell := range cells {
			co := f.cellCoords(cell)
			q := f.pointQuery(co)
			q.cents = ledger.cents[cell]
			*attempted++
			if _, _, err := ask(c, base, &q, true, true); err != nil {
				fails.add(fmt.Errorf("acknowledged write to cell %v, %s: %w", co, when, err))
			}
		}
	}
	requery(d.base, "after the writer stopped")
	d.kill()
	d, _, err := sb.serve(files.catalog, files.store, wl.serveFlags()...)
	if err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	requery(d.base, "after SIGKILL and restart")
	d.stop()
	*attempted++
	if _, err := sb.run("verify", "-catalog", files.catalog, "-store", files.store); err != nil {
		fails.add(err)
	}
	return nil
}
