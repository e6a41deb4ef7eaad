package main

import (
	"strconv"
	"strings"

	snakes "repro"
	"repro/internal/obs"
)

// metricsPrefix namespaces every daemon metric; the metrics-name lint
// (make metrics-lint, TestMetricsLint) enforces it together with
// snake_case and per-series uniqueness.
const metricsPrefix = "snakestore_"

// handlerNames, responseCodes, and reorgOutcomes enumerate the closed
// label sets the daemon pre-registers at startup — the obs registry
// deliberately has no dynamic series creation, so the error taxonomy stays
// an explicit list.
var (
	handlerNames  = []string{"query", "verify", "healthz", "metrics", "reorg", "repair", "traces", "ingest", "events"}
	responseCodes = []int{200, 202, 400, 404, 409, 500, 503, 504}
	reorgOutcomes = []string{"success", "failed", "canceled"}
	healthStates  = []string{"ok", "degraded", "healing"}
)

// handlerMetrics is one endpoint's request telemetry.
type handlerMetrics struct {
	requests  *obs.Counter
	latency   *obs.Histogram
	byCode    map[int]*obs.Counter
	otherCode *obs.Counter // statuses outside responseCodes
}

// serverMetrics is the daemon's metric set over one obs.Registry, wired to
// the live pool and admission counters at scrape time.
type serverMetrics struct {
	reg      *obs.Registry
	inFlight *obs.Gauge
	draining *obs.Gauge
	handlers map[string]*handlerMetrics

	queryRecords  *obs.Counter
	pagesAnalytic *obs.Histogram
	pagesRead     *obs.Histogram
	seeksAnalytic *obs.Histogram
	seeksObserved *obs.Histogram
	fragSeconds   *obs.Histogram

	// Adaptive reorganization: one counter per class the serve path has
	// attributed queries to, the policy's last regret measurement, and
	// per-outcome migration counts and durations.
	classObserved map[string]*obs.Counter
	reorgRegret   *obs.Gauge
	reorgSeconds  *obs.Histogram
	reorgOutcome  map[string]*obs.Counter

	// Self-healing: pages read by repairing scrub windows (the maintainer's
	// and POST /repair's), pages reconstructed from parity, and repair attempts that
	// found the damage beyond parity's single-fault budget.
	scrubPages     *obs.Counter
	pagesRepaired  *obs.Counter
	repairFailures *obs.Counter

	// Tracing: requests past the slow threshold, handler panics caught by
	// the middleware, and per-span-kind time observed from finished traces.
	slowQuery   *obs.Counter
	httpPanics  *obs.Counter
	spanSeconds map[string]*obs.Histogram

	// Write path: accepted/rejected upserts and the cells queries served
	// from the delta store instead of the base file. The backlog gauges and
	// compaction counters are registered by enableIngest, which owns the
	// live delta log they read.
	ingestPuts      *obs.Counter
	ingestBytes     *obs.Counter
	ingestRejected  *obs.Counter
	queryDeltaCells *obs.Counter
}

// latencyBuckets spans 0.5 ms – ~4 s, the daemon's plausible request range.
var latencyBuckets = obs.ExpBuckets(0.0005, 2, 14)

// reorgBuckets spans 0.1 s – ~55 min: a reorganization copies 1 MiB a tick.
var reorgBuckets = obs.ExpBuckets(0.1, 2, 16)

// pageBuckets spans 1 – 2048 pages/seeks per query.
var pageBuckets = obs.ExpBuckets(1, 2, 12)

// classLabel renders a query class as a metric label value: its per-dim
// levels comma-joined, e.g. "0,2".
func classLabel(c snakes.Class) string {
	parts := make([]string, len(c))
	for i, lv := range c {
		parts[i] = strconv.Itoa(lv)
	}
	return strings.Join(parts, ",")
}

// newServerMetrics builds the registry: pool and admission stats exposed
// straight from their existing atomic counters, per-handler request
// counters/histograms, the analytic-vs-observed query cost histograms, and
// the adaptive reorganization families. The store is read through an
// accessor because reorganization hot-swaps it at runtime; the schema fixes
// the closed per-class label set.
func newServerMetrics(store func() *snakes.FileStore, adm *snakes.Admission, schema *snakes.Schema) *serverMetrics {
	reg := obs.NewRegistry(metricsPrefix)
	pool := func(f func(snakes.PoolStats) int64) func() int64 {
		return func() int64 { return f(store().Pool().Stats()) }
	}
	reg.CounterFunc("snakestore_pool_hits_total", "buffer pool page pins served from a resident frame", pool(func(s snakes.PoolStats) int64 { return s.Hits }))
	reg.CounterFunc("snakestore_pool_misses_total", "buffer pool physical page loads", pool(func(s snakes.PoolStats) int64 { return s.Misses }))
	reg.CounterFunc("snakestore_pool_evictions_total", "buffer pool frame evictions", pool(func(s snakes.PoolStats) int64 { return s.Evictions }))
	reg.CounterFunc("snakestore_pool_writes_total", "buffer pool physical page write-backs", pool(func(s snakes.PoolStats) int64 { return s.Writes }))
	reg.CounterFunc("snakestore_pool_retries_total", "transient I/O errors ridden out by the retry policy", pool(func(s snakes.PoolStats) int64 { return s.Retries }))
	reg.CounterFunc("snakestore_pool_single_flight_waits_total", "goroutines that waited on another goroutine's in-flight load", pool(func(s snakes.PoolStats) int64 { return s.SingleFlightWaits }))

	admf := func(f func(snakes.AdmissionStats) float64) func() float64 {
		return func() float64 { return f(adm.StatsSnapshot()) }
	}
	reg.GaugeFunc("snakestore_admission_capacity_pages", "total admission weight capacity", admf(func(s snakes.AdmissionStats) float64 { return float64(s.Capacity) }))
	reg.GaugeFunc("snakestore_admission_in_use_pages", "admission weight currently admitted", admf(func(s snakes.AdmissionStats) float64 { return float64(s.InUse) }))
	reg.GaugeFunc("snakestore_admission_queue_depth", "queries waiting for admission", admf(func(s snakes.AdmissionStats) float64 { return float64(s.QueueDepth) }))
	reg.CounterFunc("snakestore_admission_admitted_total", "queries admitted", func() int64 { return adm.StatsSnapshot().Admitted })
	reg.CounterFunc("snakestore_admission_rejected_total", "queries shed on admission queue timeout", func() int64 { return adm.StatsSnapshot().Rejected })
	reg.CounterFunc("snakestore_admission_canceled_total", "queries whose context ended while waiting for admission", func() int64 { return adm.StatsSnapshot().Canceled })

	m := &serverMetrics{
		reg:      reg,
		inFlight: reg.Gauge("snakestore_http_in_flight", "HTTP requests currently being served"),
		draining: reg.Gauge("snakestore_draining", "1 while graceful shutdown drains in-flight requests"),
		handlers: make(map[string]*handlerMetrics, len(handlerNames)),

		queryRecords:  reg.Counter("snakestore_query_records_total", "records streamed to query responses"),
		pagesAnalytic: reg.Histogram("snakestore_query_pages_analytic", "pages per query predicted by the analytic cost model", pageBuckets),
		pagesRead:     reg.Histogram("snakestore_query_pages_read", "physical page reads per query observed at the pool", pageBuckets),
		seeksAnalytic: reg.Histogram("snakestore_query_seeks_analytic", "seeks per query predicted by the analytic cost model", pageBuckets),
		seeksObserved: reg.Histogram("snakestore_query_seeks_observed", "seeks per query observed at the pool (runs of non-consecutive reads)", pageBuckets),
		fragSeconds:   reg.Histogram("snakestore_fragment_seconds", "wall time of one fragment (seek run) fetch", latencyBuckets),

		classObserved: make(map[string]*obs.Counter, schema.NumClasses()),
		reorgRegret:   reg.Gauge("snakestore_reorg_regret", "deployed strategy cost over DP-optimal cost at the last policy evaluation"),
		reorgSeconds:  reg.Histogram("snakestore_reorg_migration_seconds", "wall time of reorganization attempts", reorgBuckets),
		reorgOutcome:  make(map[string]*obs.Counter, len(reorgOutcomes)),

		scrubPages:     reg.Counter("snakestore_scrub_pages_total", "pages checked by the background scrubber and repair sweeps"),
		pagesRepaired:  reg.Counter("snakestore_pages_repaired_total", "corrupt pages reconstructed from parity and re-verified"),
		repairFailures: reg.Counter("snakestore_repair_failures_total", "repair attempts that could not reconstruct the page"),

		slowQuery:   reg.Counter("snakestore_slow_query_total", "traced requests at or past the slow-query threshold"),
		httpPanics:  reg.Counter("snakestore_http_panics_total", "handler panics recovered by the serving middleware"),
		spanSeconds: make(map[string]*obs.Histogram, len(snakes.TraceSpanKinds())),

		ingestPuts:      reg.Counter("snakestore_ingest_puts_total", "cell upserts accepted into the delta store"),
		ingestBytes:     reg.Counter("snakestore_ingest_bytes_total", "framed payload bytes accepted into the delta store"),
		ingestRejected:  reg.Counter("snakestore_ingest_rejected_total", "cell upserts shed on delta backlog pressure or put failure"),
		queryDeltaCells: reg.Counter("snakestore_query_delta_cells_total", "cells queries served from the delta store via merge-on-read"),
	}
	for _, scope := range []string{"cell", "all"} {
		scope := scope
		reg.CounterFunc("snakestore_plan_cache_invalidations_total", "cached read plans invalidated, by scope (cell = made stale by a base write, all = cache overflow)", func() int64 {
			cell, all := store().PlanCacheInvalidations()
			if scope == "cell" {
				return cell
			}
			return all
		}, "scope", scope)
	}
	for _, k := range snakes.TraceSpanKinds() {
		m.spanSeconds[k] = reg.Histogram("snakestore_trace_span_seconds", "span time in finished traces by span kind", latencyBuckets, "kind", k)
	}
	for _, c := range schema.Classes() {
		lbl := classLabel(c)
		m.classObserved[lbl] = reg.Counter("snakestore_query_class_observed_total", "queries served by attributed query class", "class", lbl)
	}
	for _, o := range reorgOutcomes {
		m.reorgOutcome[o] = reg.Counter("snakestore_reorg_total", "reorganization attempts by outcome", "outcome", o)
	}
	for _, h := range handlerNames {
		hm := &handlerMetrics{
			requests:  reg.Counter("snakestore_http_requests_total", "HTTP requests received", "handler", h),
			latency:   reg.Histogram("snakestore_http_request_seconds", "HTTP request latency", latencyBuckets, "handler", h),
			byCode:    make(map[int]*obs.Counter, len(responseCodes)),
			otherCode: reg.Counter("snakestore_http_responses_total", "HTTP responses by status code", "handler", h, "code", "other"),
		}
		for _, code := range responseCodes {
			hm.byCode[code] = reg.Counter("snakestore_http_responses_total", "HTTP responses by status code", "handler", h, "code", strconv.Itoa(code))
		}
		m.handlers[h] = hm
	}
	return m
}

// response counts one finished request against the handler's code series.
func (hm *handlerMetrics) response(code int) {
	if c, ok := hm.byCode[code]; ok {
		c.Inc()
		return
	}
	hm.otherCode.Inc()
}

// observeClass counts one served query against its class series and feeds
// the gauge consumers; unknown labels are impossible by construction (the
// set is pre-registered from the schema) but ignored defensively.
func (m *serverMetrics) observeClass(c snakes.Class) {
	if ctr, ok := m.classObserved[classLabel(c)]; ok {
		ctr.Inc()
	}
}

// observeReorg counts one reorganization outcome and its duration.
func (m *serverMetrics) observeReorg(outcome string, seconds float64) {
	if ctr, ok := m.reorgOutcome[outcome]; ok {
		ctr.Inc()
	}
	m.reorgSeconds.Observe(seconds)
}

// observeTrace feeds one finished trace into the per-span-kind time
// histograms and counts it against the slow-query series when the recorder
// classified it slow. Span kinds are a closed set fixed at registration;
// anything else (there should be nothing else) is ignored.
func (m *serverMetrics) observeTrace(tr *snakes.Trace, res snakes.TraceResult) {
	if res.Slow {
		m.slowQuery.Inc()
	}
	for _, sp := range tr.Spans() {
		if h, ok := m.spanSeconds[sp.Kind]; ok && sp.Dur >= 0 {
			h.Observe(float64(sp.Dur) / 1e9)
		}
	}
}
