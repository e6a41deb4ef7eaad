package main

import (
	"strconv"

	"repro/internal/tpcd"
)

// workloadDef is one named workload: which store it runs on, the serve
// flags that differ from the shipped defaults, and the traffic it offers.
// Every flag not listed keeps its default (scrubber 128 pages/s,
// -trace-sample 16, admission 1024 pages, -ingest-sync batch 256 KiB,
// -compact-interval 1s), so the numbers are what an operator gets.
type workloadDef struct {
	Name string
	Why  string // one line; BENCHMARK.json carries it verbatim

	Drift        bool // run on S-drift, the store clustered for the opposite mix
	Point        bool // single-cell queries instead of the workload-7 list
	Frames       int  // serve -frames
	ReadParallel int  // serve -read-parallel
	Readers      int  // closed-loop query clients
	IngestRate   int  // open-loop /ingest batches per second; 0 = read-only
}

// ingestBatchCells is the number of cells in each posted /ingest batch.
const ingestBatchCells = 4

// readAhead is serve's -read-ahead default, passed explicitly where the
// parallel path uses it.
const readAhead = 8

// Load shape: the whole run is pinned to one processor (pinToOneCPU), so
// one closed-loop client keeps exactly one request in flight and client and
// daemon take turns on it; mixed-rw adds the open-loop writer, two request
// goroutines on two keep-alive connections and never more than nproc.
var workloads = []workloadDef{
	{Name: "w7-warm", Frames: 4096, ReadParallel: 1, Readers: 1,
		Why: "whole store fits the 4096-frame pool: pool hits, record walk and the text sum kernel do the work, IO none"},
	{Name: "w7-cold", Frames: 128, ReadParallel: 2, Readers: 1,
		Why: "same queries on a 128-frame pool (6.5% of the store): misses, evictions, CRC verify and the parallel reader dominate"},
	{Name: "w7-drift", Drift: true, Frames: 128, ReadParallel: 2, Readers: 1,
		Why: "same queries, records and flags as w7-cold on a store clustered for the opposite mix: many short runs, the paper's claim in wall-clock form"},
	{Name: "point", Point: true, Frames: 4096, ReadParallel: 1, Readers: 1,
		Why: "single-cell queries: storage reads one page, so HTTP parse, middleware, admission, wide event and JSON encode are the request"},
	{Name: "mixed-rw", Frames: 4096, ReadParallel: 1, Readers: 1, IngestRate: 40,
		Why: "one closed-loop reader beside an open-loop writer posting 40 batches/s of 4 cells: WAL append, merge-on-read and paced compaction run beside reads"},
}

func workloadByName(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// mix is the workload the store is clustered for: paper workload 7 for
// S-opt, the opposite ramp in every dimension for S-drift.
func (w workloadDef) mix() tpcd.Mix {
	if w.Drift {
		return tpcd.Mix{Parts: tpcd.RampDown, Supplier: tpcd.RampUp, Time: tpcd.RampDown}
	}
	return tpcd.PaperWorkload7()
}

// serveFlags are the daemon flags the workload sets beyond the defaults.
func (w workloadDef) serveFlags() []string {
	flags := []string{"-frames", strconv.Itoa(w.Frames), "-read-parallel", strconv.Itoa(w.ReadParallel)}
	if w.ReadParallel > 1 {
		flags = append(flags, "-read-ahead", strconv.Itoa(readAhead))
	}
	if w.IngestRate > 0 {
		flags = append(flags, "-ingest")
	}
	return flags
}

// metricDef names one reported quantity. The names are final: later issues
// cite them verbatim.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"

	// Bound is the share of the baseline by which an end-to-end metric may
	// worsen before -compare calls it a regression; zero for per-layer
	// metrics, which have no bound.
	Bound    float64
	EndToEnd bool

	// Contract marks the end-to-end metrics BENCHMARK.json lists: those
	// that exist, and are never zero, on every workload. The remaining
	// end-to-end metrics are reported and compared by this program but
	// travel in BENCHMARK.json's per-layer list (see README).
	Contract bool

	// ExactPerSeed marks counts that repeat exactly for a given seed:
	// -compare holds them to a bound of 0 when both reports used one seed.
	ExactPerSeed bool

	// IngestOnly metrics exist on mixed-rw alone; ParallelOnly metrics on
	// the workloads that read with -read-parallel > 1 (the plan cache and
	// the fragment histogram belong to the parallel read path).
	IngestOnly   bool
	ParallelOnly bool

	// Moves names the end-to-end metric and workload a per-layer metric is
	// expected to move; documentation, printed by -metrics.
	Moves string
}

// Bounds of the end-to-end metrics. ISSUE 12 asks 10–15 % for the timed
// ones; they take the contract's maximum of 25 % instead, because the
// reference sandbox is a slice of a shared host whose speed moves by tens of
// per cent over seconds to minutes. Pinned to one processor and read off the
// undisturbed slices (sliceWidth), ten runs with ten seeds spread 3–7 % of
// their median on the reference box, but another box may be busier, and a
// bound has to be about three times the spread it is judged against. The
// counts are exact per seed; their bound covers ten different seeds.
const (
	boundTimed = 0.25
	boundRSS   = 0.20
	boundPages = 0.10
	boundSeeks = 0.15 // 512 queries average ~4.5 seek runs each: 2–4.5 % across ten seeds
	boundBytes = 0.02
)

var metrics = []metricDef{
	// End to end.
	{Name: "query_throughput_qps", Unit: "ops/s", Better: "higher", Bound: boundTimed, EndToEnd: true, Contract: true},
	// query_mid_ms is the interquartile mean of the latencies: the typical
	// request, and the latency BENCHMARK.json holds to a bound. The exact
	// percentiles below are reported and compared by this program but travel
	// in BENCHMARK.json's per-layer list, because neither repeats from run
	// to run on every workload: on the workload-7 lists the median sits on
	// the cliff between two query classes (p40 0.27 ms, p60 0.72 ms on
	// w7-warm), so it moves 10–20 % with the seed, and on point the p99 is
	// two host hiccups long and moves 20–40 % with the host.
	{Name: "query_mid_ms", Unit: "ms", Better: "lower", Bound: boundTimed, EndToEnd: true, Contract: true},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: boundTimed, EndToEnd: true},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Bound: boundTimed, EndToEnd: true},
	{Name: "cold_pages_per_query", Unit: "count", Better: "lower", Bound: boundPages, EndToEnd: true, Contract: true, ExactPerSeed: true},
	{Name: "cold_seeks_per_query", Unit: "count", Better: "lower", Bound: boundSeeks, EndToEnd: true, Contract: true, ExactPerSeed: true},
	{Name: "server_rss_mb", Unit: "MiB", Better: "lower", Bound: boundRSS, EndToEnd: true, Contract: true},
	{Name: "store_bytes_per_user_byte", Unit: "ratio", Better: "lower", Bound: boundBytes, EndToEnd: true, Contract: true},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: boundTimed, EndToEnd: true, Contract: true},
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower", Bound: boundTimed, EndToEnd: true, IngestOnly: true},
	{Name: "failed_frac", Unit: "ratio", Better: "lower", EndToEnd: true},

	// serve.* — cmd/snakestore.
	{Name: "serve.http_overhead_us", Unit: "us", Better: "lower", Moves: "query_p50_ms, query_throughput_qps on point"},
	{Name: "serve.sum_us_per_krecord", Unit: "us", Better: "lower", Moves: "query_throughput_qps on w7-warm"},
	{Name: "serve.admission_wait_us", Unit: "us", Better: "lower", Moves: "query_p99_ms on w7-cold"},
	{Name: "serve.admission_rejected", Unit: "count", Better: "lower", Moves: "failed_frac on w7-cold"},
	{Name: "serve.http_4xx", Unit: "count", Better: "lower", Moves: "failed_frac"},
	{Name: "serve.http_5xx", Unit: "count", Better: "lower", Moves: "failed_frac"},
	{Name: "serve.slow_queries", Unit: "count", Better: "lower", Moves: "query_p99_ms"},
	{Name: "serve.cpu_ms_per_query", Unit: "ms", Better: "lower", Moves: "query_throughput_qps"},
	{Name: "serve.optimize_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "serve.build_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "serve.start_s", Unit: "s", Better: "lower", Moves: "setup_s"},

	// storage.* — internal/storage.
	{Name: "storage.pool_hit_ratio", Unit: "ratio", Better: "higher", Moves: "query_p50_ms on w7-cold, w7-drift; ~1 on w7-warm, point"},
	{Name: "storage.pool_evictions_per_query", Unit: "count", Better: "lower", Moves: "query_p50_ms on w7-cold, w7-drift"},
	{Name: "storage.pages_read_per_query", Unit: "count", Better: "lower", Moves: "query_p50_ms on w7-cold, w7-drift; ~0 on w7-warm, point"},
	{Name: "storage.seeks_per_query", Unit: "count", Better: "lower", Moves: "query_p50_ms on w7-drift"},
	{Name: "storage.single_flight_waits", Unit: "count", Better: "lower", Moves: "query_p99_ms on w7-cold"},
	{Name: "storage.retries", Unit: "count", Better: "lower", Moves: "query_p99_ms"},
	{Name: "storage.pages_predicted_per_query", Unit: "count", Better: "lower", Moves: "cold_pages_per_query"},
	{Name: "storage.seeks_predicted_per_query", Unit: "count", Better: "lower", Moves: "cold_seeks_per_query"},
	{Name: "storage.model_page_ratio", Unit: "ratio", Better: "lower", Moves: "cold_pages_per_query (exactly 1)"},
	{Name: "storage.model_seek_ratio", Unit: "ratio", Better: "lower", Moves: "cold_seeks_per_query (exactly 1)"},
	{Name: "storage.plan_us", Unit: "us", Better: "lower", Moves: "query_p50_ms on w7-drift, point"},
	{Name: "storage.plan_cache_hit_ratio", Unit: "ratio", Better: "higher", ParallelOnly: true, Moves: "query_p50_ms on w7-drift"},
	{Name: "storage.read_us", Unit: "us", Better: "lower", Moves: "query_throughput_qps on every workload"},
	{Name: "storage.read_cold_us_per_page", Unit: "us", Better: "lower", Moves: "query_throughput_qps on w7-cold, w7-drift"},
	{Name: "storage.parallel_speedup", Unit: "ratio", Better: "higher", Moves: "query_throughput_qps on w7-cold, w7-drift"},
	{Name: "storage.checksum_read_us_per_page", Unit: "us", Better: "lower", Moves: "query_p50_ms on w7-cold"},
	{Name: "storage.fragment_us", Unit: "us", Better: "lower", ParallelOnly: true, Moves: "query_p50_ms on w7-cold, w7-drift"},
	{Name: "storage.page_load_us", Unit: "us", Better: "lower", Moves: "query_p50_ms on w7-cold, w7-drift"},
	{Name: "storage.verify_pages_per_s", Unit: "1/s", Better: "higher", Moves: "background scrub cost behind query_p99_ms"},

	// ingest.* — internal/ingest, mixed-rw only.
	{Name: "ingest.put_us", Unit: "us", Better: "lower", IngestOnly: true, Moves: "ingest_p50_ms"},
	{Name: "ingest.post_p95_ms", Unit: "ms", Better: "lower", IngestOnly: true, Moves: "ingest_p50_ms"},
	{Name: "ingest.rejected", Unit: "count", Better: "lower", IngestOnly: true, Moves: "failed_frac"},
	{Name: "ingest.delta_hit_cells_per_query", Unit: "count", Better: "lower", IngestOnly: true, Moves: "query_p50_ms on mixed-rw"},
	{Name: "ingest.plan_invalidations", Unit: "count", Better: "lower", IngestOnly: true, Moves: "query_p50_ms on mixed-rw"},
	{Name: "ingest.compaction_ticks", Unit: "count", Better: "higher", IngestOnly: true, Moves: "query_p99_ms on mixed-rw"},
	{Name: "ingest.compaction_tick_ms", Unit: "ms", Better: "lower", IngestOnly: true, Moves: "query_p99_ms on mixed-rw"},
	{Name: "ingest.compacted_bytes", Unit: "bytes", Better: "higher", IngestOnly: true, Moves: "query_p99_ms on mixed-rw"},
	{Name: "ingest.compaction_lag_s_max", Unit: "s", Better: "lower", IngestOnly: true, Moves: "query_p99_ms on mixed-rw"},
	{Name: "ingest.pending_cells_max", Unit: "count", Better: "lower", IngestOnly: true, Moves: "query_p99_ms on mixed-rw"},
	{Name: "ingest.write_amp", Unit: "ratio", Better: "lower", IngestOnly: true, Moves: "store_bytes_per_user_byte"},

	// Set-up layers.
	{Name: "core.dp_us", Unit: "us", Better: "lower", Moves: "setup_s"},
	{Name: "linear.materialize_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},

	// The paper's own cost: contiguous runs of cells a query needs in the
	// deployed linearization (Order.Fragments), before page granularity
	// merges neighbouring runs. It is what the DP minimises.
	{Name: "linear.fragments_per_query", Unit: "count", Better: "lower", Moves: "cold_pages_per_query, cold_seeks_per_query on w7-drift"},

	// Telemetry's own price.
	{Name: "trace.full_sampling_overhead_frac", Unit: "ratio", Better: "lower", Moves: "query_p50_ms on point"},
	{Name: "trace.span_ns", Unit: "ns", Better: "lower", Moves: "query_p50_ms on point"},
	{Name: "trace.reconcile_ratio", Unit: "ratio", Better: "higher", Moves: "share of client latency the daemon accounts for"},
	{Name: "obsevent.publish_ns", Unit: "ns", Better: "lower", Moves: "query_p50_ms on point"},
	{Name: "obsevent.overwritten", Unit: "count", Better: "lower", Moves: "events lost to the ring before anyone read them"},
	{Name: "obs.scrape_ms", Unit: "ms", Better: "lower", Moves: "query_p99_ms while a scraper polls"},

	// The generator itself, so a saturated generator is not blamed on the daemon.
	{Name: "loadgen.late_ms_max", Unit: "ms", Better: "lower", Moves: "ingest_p50_ms is the generator's if this is large"},
	{Name: "loadgen.cpu_frac", Unit: "ratio", Better: "lower", Moves: "share of the run's one processor the generator itself burned"},
	{Name: "loadgen.samples", Unit: "count", Better: "higher", Moves: "samples behind the latency percentiles"},
	{Name: "loadgen.box_spin_ms", Unit: "ms", Better: "lower", Moves: "every timing: a fixed CPU loop, so a slower box is visible as such"},
	{Name: "loadgen.p99_slice_samples", Unit: "count", Better: "higher", Moves: "smallest sample count of a query_p99_ms slice"},
}

// applies reports whether a metric exists on a workload.
func (m metricDef) applies(w workloadDef) bool {
	return (!m.IngestOnly || w.IngestRate > 0) && (!m.ParallelOnly || w.ReadParallel > 1)
}
