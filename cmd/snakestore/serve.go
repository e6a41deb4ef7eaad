package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	snakes "repro"
)

// buildVersion identifies the binary in snakestore_build_info; override at
// link time with -ldflags "-X main.buildVersion=...".
var buildVersion = "dev"

// server answers grid queries over HTTP against one shared FileStore. The
// store is goroutine-safe, so requests run concurrently; an admission
// controller bounds the total analytic page weight in flight, and requests
// that cannot be admitted in time are shed with 503 instead of queueing
// without bound. A corrupt page discovered while serving is quarantined —
// recorded and reported via /healthz — rather than crashing the daemon.
//
// With -adapt the daemon also closes the paper's loop at runtime: every
// /query is attributed to its lattice class and fed to a Reorganizer, which
// re-runs the Figure-4 DP against the decayed live distribution and — when
// the deployed linearization's regret clears the policy — migrates the
// store into a new generation file and hot-swaps the serving pointer. The
// store field is therefore an atomic pointer: handlers snapshot it once per
// request, in-flight readers on the old generation drain through its
// close, and queries racing a swap see either generation but never a torn
// state.
//
// Every request flows through the instrument middleware: it is counted and
// timed in the /metrics registry and logged in key=value form with a
// process-unique request id.
type server struct {
	store      atomic.Pointer[snakes.FileStore]
	schema     *snakes.Schema
	dims       []snakes.Dimension
	adm        *snakes.Admission
	reqTimeout time.Duration
	readOpts   snakes.ReadOptions // read schedule; zero = runs in order on the handler goroutine
	metrics    *serverMetrics
	log        *slog.Logger
	flushLog   func() // pushes out what log buffers; a no-op on an unbuffered log
	pprof      bool   // mount /debug/pprof/ on the serving mux
	traces     *snakes.TraceRecorder
	started    time.Time
	clock      func() time.Time // injectable for deterministic latency/SLO tests

	// Observability v2: every served request publishes one wide Event into
	// events (the ring behind /debug/events and the access log); query
	// events additionally feed calib, the cost-model calibration watch.
	// slo stays nil unless -slo configured objectives.
	events *snakes.EventRing
	calib  *snakes.Calibration
	slo    *snakes.SLOEngine

	// Write path state; ing stays nil when -ingest is off.
	ing *ingestState

	// Adaptive reorganization state; reorg stays nil when -adapt is off.
	// calibrateRegret (the -adapt-calibrated flag) additionally scales the
	// policy's deployed cost by the calibration watch's observed/predicted
	// seek ratio — opt-in, because a warm pool legitimately suppresses
	// regret and operators may want the pure analytic policy.
	calibrateRegret bool
	reorg           *snakes.Reorganizer
	generation      atomic.Int64
	swapMu          sync.Mutex // serializes store swaps against drain
	catPath         string
	storeBase       string
	frames          int
	cat             *catalog

	draining atomic.Bool   // set once graceful shutdown begins
	reqID    atomic.Uint64 // request id sequence for log correlation

	// Self-healing: the parity group size for regenerated sidecars and the
	// health state machine. Health is derived from quarantine plus the
	// healing flag: ok (quarantine empty) → degraded (corruption detected)
	// → healing (repairs in progress) → back to ok when the quarantine
	// empties, or degraded again when damage proves unrepairable.
	parityGroup int

	mu         sync.Mutex
	quarantine map[int64]string // corrupt page -> first error seen
	healing    bool             // a repair pass is actively working the quarantine
	lastScrub  string           // outcome of the most recent /verify
}

func newServer(store *snakes.FileStore, schema *snakes.Schema, dims []snakes.Dimension, adm *snakes.Admission, reqTimeout time.Duration, gen int, tcfg snakes.TraceConfig) *server {
	s := &server{
		schema:      schema,
		dims:        dims,
		adm:         adm,
		reqTimeout:  reqTimeout,
		log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		flushLog:    func() {},
		quarantine:  make(map[int64]string),
		parityGroup: snakes.DefaultParityGroup,
		traces:      snakes.NewTraceRecorder(tcfg),
		started:     time.Now(),
		clock:       time.Now,
		events:      snakes.NewEventRing(defaultEventCapacity),
		calib:       snakes.NewCalibration(snakes.DefaultCalibrationAlpha, snakes.DefaultCalibrationThreshold, snakes.DefaultCalibrationMinWeight),
	}
	s.store.Store(store)
	s.generation.Store(int64(gen))
	s.metrics = newServerMetrics(s.st, adm, schema)
	s.metrics.reg.GaugeFunc("snakestore_quarantined_pages", "pages quarantined after checksum failures", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.quarantine))
	})
	s.metrics.reg.GaugeFunc("snakestore_store_generation", "store generation currently serving", func() float64 {
		return float64(s.generation.Load())
	})
	for _, hs := range healthStates {
		hs := hs
		s.metrics.reg.GaugeFunc("snakestore_health_state", "1 for the current health state, by state", func() float64 {
			if s.healthState() == hs {
				return 1
			}
			return 0
		}, "state", hs)
	}
	s.metrics.reg.GaugeFunc("snakestore_build_info", "constant 1, labeled with the binary version, Go runtime, and startup store generation",
		func() float64 { return 1 },
		"version", buildVersion, "goversion", runtime.Version(), "generation", strconv.Itoa(gen))
	// Trace retention counters read the recorder's atomics at scrape time,
	// like the pool and admission families.
	tst := func(f func(snakes.TraceStats) uint64) func() int64 {
		return func() int64 { return int64(f(s.traces.Stats())) }
	}
	s.metrics.reg.CounterFunc("snakestore_traces_started_total", "requests that carried a candidate trace", tst(func(st snakes.TraceStats) uint64 { return st.Started }))
	s.metrics.reg.CounterFunc("snakestore_traces_kept_total", "finished traces retained, by reason", tst(func(st snakes.TraceStats) uint64 { return st.KeptSampled }), "reason", "sampled")
	s.metrics.reg.CounterFunc("snakestore_traces_kept_total", "finished traces retained, by reason", tst(func(st snakes.TraceStats) uint64 { return st.KeptSlow }), "reason", "slow")
	s.metrics.reg.CounterFunc("snakestore_traces_kept_total", "finished traces retained, by reason", tst(func(st snakes.TraceStats) uint64 { return st.KeptError }), "reason", "error")
	s.metrics.reg.CounterFunc("snakestore_traces_kept_total", "finished traces retained, by reason", tst(func(st snakes.TraceStats) uint64 { return st.KeptForced }), "reason", "forced")
	s.metrics.reg.CounterFunc("snakestore_traces_discarded_total", "candidate traces finished without retention", tst(func(st snakes.TraceStats) uint64 { return st.Discarded }))
	s.metrics.reg.CounterFunc("snakestore_trace_spans_dropped_total", "spans dropped from traces at the per-trace cap", tst(func(st snakes.TraceStats) uint64 { return st.DroppedSpans }))
	// Wide-event ring retention, read straight from the ring's atomics.
	s.metrics.reg.CounterFunc("snakestore_event_published_total", "wide events published into the /debug/events ring", func() int64 { return int64(s.events.Published()) })
	s.metrics.reg.CounterFunc("snakestore_event_overwritten_total", "wide events overwritten in the ring before being queried", func() int64 { return int64(s.events.Overwritten()) })
	s.metrics.reg.GaugeFunc("snakestore_event_ring_capacity", "wide events the ring retains", func() float64 { return float64(s.events.Capacity()) })
	// Cost-model calibration watch: per-class decayed observed/predicted
	// ratios plus the global seek correction the adaptive policy consumes.
	// The class label set is closed (pre-registered from the schema), like
	// the query-class counters.
	for _, c := range schema.Classes() {
		lbl := classLabel(c)
		calibView := func() snakes.ClassCalibration {
			v, _ := s.calib.Class(lbl)
			return v
		}
		s.metrics.reg.GaugeFunc("snakestore_calibration_page_ratio", "decayed observed/predicted pages by query class (1 = model exact)", func() float64 { return calibView().PageRatio }, "class", lbl)
		s.metrics.reg.GaugeFunc("snakestore_calibration_seek_ratio", "decayed observed/predicted seeks by query class (1 = model exact)", func() float64 { return calibView().SeekRatio }, "class", lbl)
		s.metrics.reg.GaugeFunc("snakestore_calibration_weight", "decayed observation mass behind the class calibration", func() float64 { return calibView().Weight }, "class", lbl)
		s.metrics.reg.GaugeFunc("snakestore_calibration_drifted", "1 while the class's cost model is flagged stale (ratio past the drift threshold)", func() float64 {
			if calibView().Drifted {
				return 1
			}
			return 0
		}, "class", lbl)
	}
	s.metrics.reg.GaugeFunc("snakestore_calibration_seek_correction", "global observed/predicted seek ratio applied to the reorg policy's deployed cost", func() float64 { return s.calib.SeekCorrection() })
	s.armFragmentObserver(store)
	return s
}

// enableSLO wires per-class latency objectives onto the server: every
// query event feeds the engine, /healthz carries the per-class burn
// status, and the registry exports burn rates, one-hot states, and
// good/bad totals for the classes the spec tracks. Per-class objective
// keys must name schema classes — the metric label set is closed.
func (s *server) enableSLO(cfg snakes.SLOConfig) error {
	known := make(map[string]bool, s.schema.NumClasses())
	for _, c := range s.schema.Classes() {
		known[classLabel(c)] = true
	}
	tracked := make([]string, 0, s.schema.NumClasses())
	for lbl := range cfg.PerClass {
		if !known[lbl] {
			return fmt.Errorf("slo: class %q is not a class of this schema", lbl)
		}
	}
	if cfg.HasDefault {
		for _, c := range s.schema.Classes() {
			tracked = append(tracked, classLabel(c))
		}
	} else {
		for lbl := range cfg.PerClass {
			tracked = append(tracked, lbl)
		}
		sort.Strings(tracked)
	}
	if s.slo == nil {
		s.slo = snakes.NewSLOEngineWithClock(cfg, func() time.Time { return s.clock() })
	}
	for _, lbl := range tracked {
		lbl := lbl
		s.metrics.reg.GaugeFunc("snakestore_slo_burn_rate", "error-budget burn rate by class and window (1 = burning exactly the budget)", func() float64 {
			b5, _ := s.slo.BurnRates(lbl)
			return b5
		}, "class", lbl, "window", "5m")
		s.metrics.reg.GaugeFunc("snakestore_slo_burn_rate", "error-budget burn rate by class and window (1 = burning exactly the budget)", func() float64 {
			_, b60 := s.slo.BurnRates(lbl)
			return b60
		}, "class", lbl, "window", "1h")
		for _, st := range snakes.SLOStates() {
			st := st
			s.metrics.reg.GaugeFunc("snakestore_slo_state", "1 for the class's current SLO state, by state", func() float64 {
				if s.slo.State(lbl) == st {
					return 1
				}
				return 0
			}, "class", lbl, "state", st)
		}
		s.metrics.reg.CounterFunc("snakestore_slo_requests_total", "SLO-observed requests by class and result", func() int64 {
			good, _ := s.slo.Totals(lbl)
			return good
		}, "class", lbl, "result", "good")
		s.metrics.reg.CounterFunc("snakestore_slo_requests_total", "SLO-observed requests by class and result", func() int64 {
			_, bad := s.slo.Totals(lbl)
			return bad
		}, "class", lbl, "result", "bad")
	}
	return nil
}

// armFragmentObserver routes a store's per-fragment completion samples
// from the read executor into the fragment latency histogram. Called
// for every store generation that starts serving, since the observer lives
// on the store, not the server.
func (s *server) armFragmentObserver(st *snakes.FileStore) {
	st.SetFragmentObserver(func(_ int64, seconds float64) {
		s.metrics.fragSeconds.Observe(seconds)
	})
}

// st returns the store currently serving. Handlers call it once per request
// so the analytic prediction and the physical read run against the same
// generation even when a reorganization swaps the pointer mid-request.
func (s *server) st() *snakes.FileStore { return s.store.Load() }

// closeStore closes the serving store, synchronizing with any in-flight
// swap commit so the store that survives is the one that gets closed.
func (s *server) closeStore() error {
	s.closeIngest()
	s.swapMu.Lock()
	st := s.st()
	s.swapMu.Unlock()
	return st.Close()
}

// enableReorg wires the adaptive reorganizer onto the server: the policy
// watches the classes handleQuery observes, and when it fires the server's
// reorgMigrate runs the migration and the generation swap.
func (s *server) enableReorg(catPath, storeBase string, frames int, cat *catalog, strat *snakes.Strategy, cfg snakes.ReorgConfig) error {
	s.catPath, s.storeBase, s.frames, s.cat = catPath, storeBase, frames, cat
	r, err := snakes.NewReorganizer(strat, cat.Generation, s.reorgMigrate, cfg)
	if err != nil {
		return err
	}
	r.OnEvaluate(func(e snakes.ReorgEvaluation) { s.metrics.reorgRegret.Set(e.Regret) })
	if s.calibrateRegret {
		// Regret in observed cost: the calibration watch's global seek
		// ratio maps the analytic model onto what the store actually pays.
		r.SetCostCorrection(s.calib.SeekCorrection)
	}
	r.OnReorg(func(outcome string, d time.Duration) {
		s.metrics.observeReorg(outcome, d.Seconds())
		s.log.Info("reorg", "outcome", outcome, "dur", d.Round(time.Millisecond), "gen", s.generation.Load())
	})
	s.reorg = r
	s.generation.Store(int64(cat.Generation))
	return nil
}

// reorgMigrate is the mechanism half of a reorganization: copy the store
// into the next generation file under the new strategy, persist the catalog
// (atomically, before anything is deleted), hot-swap the serving pointer,
// drain readers off the old generation, and delete the old file only after
// the new one passes a full scrub. A failure at any point before the
// catalog write aborts with the old generation untouched and no partial
// files; a crash after the catalog write leaves at most a stale file that
// startup cleanup removes.
func (s *server) reorgMigrate(ctx context.Context, d *snakes.ReorgDecision) error {
	old := s.st()
	newPath := genPath(s.storeBase, d.Generation)
	// The copy is incremental: the target linearization is cut into regions
	// scored by (1 + pending delta bytes) × (1 + clustering violation), and
	// the worst-clustered regions are rewritten first in paced bounded
	// ticks, so the migration converges toward the DP-optimal layout
	// without ever rewriting the whole file in one burst. Pending delta
	// upserts are folded in through the overlay as their cells are copied.
	var migLog *snakes.DeltaLog
	if s.ing != nil {
		s.ing.mu.Lock()
		migLog = s.ing.log
		s.ing.mu.Unlock()
	}
	dst, ticks, err := d.Strategy.MigrateRegionsCtx(ctx, old, newPath, s.frames, migLog, snakes.RegionMigrateOptions{
		RegionCells:     d.Pacing.RegionCells,
		MaxCellsPerTick: d.Pacing.MaxCellsPerTick,
		Pause:           d.Pacing.TickPause,
		Progress:        d.Progress,
	})
	if err != nil {
		return err
	}
	s.log.Info("reorg", "msg", "incremental region copy complete", "ticks", ticks, "gen", d.Generation)
	s.armFragmentObserver(dst)
	var newLog *snakes.DeltaLog
	abort := func(err error) error {
		if newLog != nil {
			newLog.Close()
			os.Remove(newLog.Path())
		}
		dst.Close()
		os.Remove(newPath)
		os.Remove(snakes.ParityPath(newPath))
		return err
	}
	// Cutover: block puts and compaction ticks, fold every entry still in
	// the log into the new generation (upserts that landed during the copy,
	// plus already-copied ones — PutCellBytes is an idempotent replace), and
	// open the new generation's fresh log. ing.mu is held through the swap
	// below so no put can land in the old log after its tail was carried.
	ingLocked := false
	unlockIngest := func() {
		if ingLocked {
			s.ing.mu.Unlock()
			ingLocked = false
		}
	}
	if s.ing != nil {
		s.ing.mu.Lock()
		ingLocked = true
	}
	defer unlockIngest()
	if s.ing != nil {
		for _, p := range s.ing.log.SnapshotPending() {
			if perr := dst.PutCellBytes(p.Cell, p.Payload); perr != nil {
				return abort(fmt.Errorf("reorg: carrying delta for cell %d: %w", p.Cell, perr))
			}
		}
		if ferr := dst.Pool().Flush(); ferr != nil {
			return abort(ferr)
		}
		newLog, err = snakes.OpenDeltaLog(snakes.DeltaPath(newPath), int64(d.Generation), s.ing.opt)
		if err != nil {
			return abort(err)
		}
		snakes.AttachDeltaLog(dst, newLog)
	}
	// The new generation's parity sidecar is written before the catalog
	// commit, so a generation is never live without its repair coverage; a
	// crash in between leaves stale files that startup cleanup sweeps.
	if err := dst.WriteParity(snakes.ParityPath(newPath), s.parityGroup); err != nil {
		return abort(err)
	}
	stratJSON, err := snakes.MarshalStrategy(d.Strategy)
	if err != nil {
		return abort(err)
	}

	// Commit point: catalog first (atomic rename), then the serving
	// pointer, all under swapMu so a concurrent drain either beats the
	// commit (we abort) or closes the store we just installed. Each phase
	// gets its own span, so a migration trace shows catalog commit, swap,
	// drain, and verify separately.
	s.swapMu.Lock()
	if s.draining.Load() {
		s.swapMu.Unlock()
		return abort(fmt.Errorf("reorg aborted: daemon draining: %w", snakes.ErrClosed))
	}
	oldPath := activeStorePath(s.cat, s.storeBase)
	cat := *s.cat
	cat.Version = catalogVersion
	cat.Strategy = stratJSON
	cat.Generation = d.Generation
	cat.StoreFile = filepath.Base(newPath)
	cat.LoadedBytes = dst.LoadedBytes()
	csp := snakes.StartTraceLeaf(ctx, snakes.TraceKindCatalogCommit, "")
	if err := writeCatalog(s.catPath, &cat); err != nil {
		csp.SetError(err)
		csp.End()
		s.swapMu.Unlock()
		return abort(err)
	}
	csp.End()
	ssp := snakes.StartTraceLeaf(ctx, snakes.TraceKindSwap, "")
	ssp.SetAttr("generation", int64(d.Generation))
	*s.cat = cat
	s.store.Store(dst)
	s.generation.Store(int64(d.Generation))
	ssp.End()
	s.swapMu.Unlock()

	// The new generation is serving; retire the old delta log. Its entries
	// were all folded into dst under ing.mu above, so the file is dead
	// weight (and would fail its generation check on the next startup).
	if s.ing != nil {
		oldLog := s.ing.log
		s.ing.log = newLog
		newLog = nil // the abort path must not remove the serving log
		if cerr := oldLog.Close(); cerr != nil {
			s.log.Warn("reorg", "msg", "closing retired delta log", "err", cerr)
		}
		if rerr := os.Remove(oldLog.Path()); rerr != nil && !os.IsNotExist(rerr) {
			s.log.Warn("reorg", "msg", "removing retired delta log", "err", rerr)
		}
	}
	unlockIngest()

	// The quarantine describes pages of the generation that just retired;
	// carrying its page ids against the new file would keep /healthz
	// degraded forever on damage that no longer exists. The post-swap scrub
	// below re-detects anything actually wrong with the new generation.
	s.mu.Lock()
	s.quarantine = make(map[int64]string)
	s.healing = false
	s.mu.Unlock()

	// The swap is committed: new requests already run on dst. Close the
	// old generation — Close blocks until its in-flight readers drain —
	// then gate the old file's deletion on a clean scrub of the new one.
	// The post-swap work keeps the trace but drops ctx's cancellation: a
	// canceled trigger must not abandon a committed swap half-tidied.
	pctx := context.WithoutCancel(ctx)
	dsp := snakes.StartTraceLeaf(pctx, snakes.TraceKindDrain, "")
	if err := old.Close(); err != nil && !errors.Is(err, snakes.ErrClosed) {
		s.log.Warn("reorg", "msg", "closing old generation", "err", err)
	}
	dsp.End()
	vctx, vsp := snakes.StartTraceSpan(pctx, snakes.TraceKindVerify, "")
	rep, verr := dst.VerifyCtx(vctx)
	vsp.SetError(verr)
	vsp.End()
	if verr != nil || !rep.OK() {
		if verr == nil {
			verr = fmt.Errorf("%d problem(s)", len(rep.Problems))
			for _, p := range rep.Problems {
				if errors.Is(p.Err, snakes.ErrCorruptPage) {
					s.noteCorrupt(fmt.Errorf("post-reorg scrub: %w", p.Err))
				}
			}
		}
		// The swap stands (the catalog already points at the new
		// generation) but the old file is kept as a recovery artifact.
		s.log.Warn("reorg", "msg", "post-swap scrub not clean; keeping old generation file", "err", verr)
		return nil
	}
	if oldPath != newPath {
		if err := os.Remove(oldPath); err != nil && !os.IsNotExist(err) {
			s.log.Warn("reorg", "msg", "removing old generation file", "err", err)
		}
		if err := os.Remove(snakes.ParityPath(oldPath)); err != nil && !os.IsNotExist(err) {
			s.log.Warn("reorg", "msg", "removing old generation parity sidecar", "err", err)
		}
	}
	return nil
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.instrument("query", true, s.handleQuery))
	mux.HandleFunc("/verify", s.instrument("verify", true, s.handleVerify))
	mux.HandleFunc("/healthz", s.instrument("healthz", false, s.handleHealthz))
	mux.HandleFunc("/reorg", s.instrument("reorg", true, s.handleReorg))
	mux.HandleFunc("/repair", s.instrument("repair", true, s.handleRepair))
	mux.HandleFunc("/ingest", s.instrument("ingest", true, s.handleIngest))
	mux.HandleFunc("/debug/traces", s.instrument("traces", false, s.handleTraces))
	mux.HandleFunc("/debug/events", s.instrument("events", false, s.handleEvents))
	// /metrics keeps answering 200 through drain and even after the store
	// closes: the registry reads atomics, never the file.
	mux.Handle("/metrics", s.instrument("metrics", false, s.metrics.reg.Handler().ServeHTTP))
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// defaultEventCapacity is the wide-event ring size when -event-capacity
// is not given.
const defaultEventCapacity = 1024

// statusWriter captures the response code for metrics and logs, and
// carries the request's in-flight wide event so writeErr can record the
// error string without changing its signature.
type statusWriter struct {
	http.ResponseWriter
	code int
	ev   *snakes.Event
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// reqIDKey carries the request id so handlers can tag their own log lines.
type reqIDKey struct{}

func reqIDFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqIDKey{}).(uint64)
	return id
}

// instrument wraps an endpoint with the shared telemetry: request counter,
// in-flight gauge, latency histogram, per-status response counters, and one
// canonical wide Event per request — built here, filled by the handler via
// the request context (class, predicted/observed cost, delta and plan-cache
// hits, admission wait), published into the ring behind /debug/events, and
// rendered as the single access-log line. Query events additionally feed
// the cost-model calibration watch and, when -slo is configured, the
// per-class burn-rate engine. A handler panic is recovered here — logged
// with its stack under the request id, answered with a typed 500 if nothing
// was written yet, and counted — so one bad request can never take the
// daemon down.
//
// Endpoints marked traced additionally run under a trace from the server's
// recorder: the root span covers the whole request, handlers hang child
// spans off the request context, and the recorder's policy decides at
// finish whether the trace is retained for /debug/traces. A kept-slow
// trace also emits a slow-query log line with its per-kind span breakdown.
func (s *server) instrument(name string, traced bool, fn http.HandlerFunc) http.HandlerFunc {
	hm := s.metrics.handlers[name]
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		hm.requests.Inc()
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		start := s.clock()
		ev := &snakes.Event{
			TimeUnixNs: start.UnixNano(),
			Handler:    name,
			Method:     r.Method,
			Path:       r.URL.Path,
			RequestID:  id,
		}
		sw := &statusWriter{ResponseWriter: w, ev: ev}
		ctx := context.WithValue(r.Context(), reqIDKey{}, id)
		ctx = snakes.WithEvent(ctx, ev)
		var tr *snakes.Trace
		if traced {
			ctx, tr = s.traces.Start(ctx, name)
			if tr != nil {
				ev.TraceID = tr.ID()
			}
		}
		panicErr := s.callHandler(sw, r.WithContext(ctx), fn, id)
		elapsed := s.clock().Sub(start)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		hm.response(code)
		hm.latency.Observe(elapsed.Seconds())
		ev.Status = code
		ev.Outcome = snakes.EventOutcomeOf(code)
		ev.LatencyNs = elapsed.Nanoseconds()
		if panicErr != nil && ev.Error == "" {
			ev.Error = panicErr.Error()
		}
		// Attribution closes here: a reconciled 200 query teaches the
		// calibration watch, and every class-attributed request with a
		// definite server-side outcome (2xx/5xx; client errors are the
		// caller's fault) feeds its SLO series.
		if ev.Class != "" && code == http.StatusOK {
			s.calib.Observe(ev.Class, ev.PredictedPages, ev.PagesRead, ev.PredictedSeeks, ev.SeeksObserved)
		}
		if s.slo != nil && ev.Class != "" && (code < 400 || code >= 500) {
			s.slo.Observe(ev.Class, elapsed, code >= 500)
		}
		// Publish after every field is final: ring events are immutable.
		s.events.Publish(ev)
		s.logEvent(ev)
		if tr != nil {
			finishErr := panicErr
			if finishErr == nil && code >= 500 {
				finishErr = fmt.Errorf("http %d", code)
			}
			res := tr.Finish(finishErr)
			s.metrics.observeTrace(tr, res)
			if res.Kept && res.Slow {
				s.log.Warn("slow-query",
					"req", id, "trace", tr.ID(), "handler", name, "url", r.URL.String(),
					"dur", res.Duration.Round(time.Microsecond), "spans", spanBreakdown(tr.Spans()))
			}
		}
	}
}

// logEvent renders one published wide event as the access-log line — the
// event is the single source, so the log carries exactly what
// /debug/events retains. Attribution fields appear only when set, keeping
// healthz/metrics probes to one short line.
func (s *server) logEvent(ev *snakes.Event) {
	args := []any{
		"req", ev.RequestID, "handler", ev.Handler, "method", ev.Method, "path", ev.Path,
		"status", ev.Status, "outcome", ev.Outcome,
		"dur", (time.Duration(ev.LatencyNs) * time.Nanosecond).Round(time.Microsecond),
	}
	if ev.TraceID != 0 {
		args = append(args, "trace", ev.TraceID)
	}
	if ev.Class != "" {
		args = append(args,
			"class", ev.Class, "gen", ev.Generation,
			"pagesAnalytic", ev.PredictedPages, "pagesRead", ev.PagesRead,
			"seeksAnalytic", ev.PredictedSeeks, "seeksObserved", ev.SeeksObserved,
			"deltaHits", ev.DeltaHits, "planCacheHit", ev.PlanCacheHit,
			"admissionWait", (time.Duration(ev.AdmissionWaitNs) * time.Nanosecond).Round(time.Microsecond))
	}
	if ev.Records != 0 {
		args = append(args, "records", ev.Records)
	}
	if ev.Error != "" {
		args = append(args, "err", ev.Error)
	}
	s.log.Info("request", args...)
}

// handleEvents serves GET /debug/events: the ring's retained wide events
// newest-first, optionally narrowed by handler, class, outcome, a minimum
// latency, a sequence floor, and a result cap. The ring is a window, not
// an archive — overwritten counts what scrolled off.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := snakes.EventFilter{
		Handler: q.Get("handler"),
		Class:   q.Get("class"),
		Outcome: q.Get("outcome"),
	}
	if v := q.Get("min_latency"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.writeErr(w, usagef("min_latency=%q: want a non-negative duration", v))
			return
		}
		f.MinLatency = d
	}
	if v := q.Get("since_seq"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeErr(w, usagef("since_seq=%q: want a sequence number", v))
			return
		}
		f.SinceSeq = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeErr(w, usagef("limit=%q: want a non-negative count", v))
			return
		}
		f.Limit = n
	}
	events := s.events.Query(f)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"published":   s.events.Published(),
		"overwritten": s.events.Overwritten(),
		"capacity":    s.events.Capacity(),
		"returned":    len(events),
		"events":      events,
	})
}

// callHandler runs the handler under the panic guard, returning the panic
// (as an error) when one was recovered.
func (s *server) callHandler(w *statusWriter, r *http.Request, fn http.HandlerFunc, id uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
			s.metrics.httpPanics.Inc()
			s.log.Error("panic", "req", id, "err", p, "stack", string(debug.Stack()))
			if w.code == 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				json.NewEncoder(w).Encode(map[string]string{"error": "internal server error"})
			}
		}
	}()
	fn(w, r)
	return nil
}

// spanBreakdown renders a finished trace's non-root spans as
// "kind×count=totalms" pairs for the slow-query log line.
func spanBreakdown(spans []snakes.TraceSpan) string {
	type agg struct {
		n  int
		ns int64
	}
	byKind := make(map[string]*agg)
	var order []string
	for _, sp := range spans {
		if sp.Kind == snakes.TraceKindRequest || sp.Dur < 0 {
			continue
		}
		a := byKind[sp.Kind]
		if a == nil {
			a = &agg{}
			byKind[sp.Kind] = a
			order = append(order, sp.Kind)
		}
		a.n++
		a.ns += sp.Dur
	}
	parts := make([]string, 0, len(order))
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%s×%d=%.2fms", k, byKind[k].n, float64(byKind[k].ns)/1e6))
	}
	return strings.Join(parts, " ")
}

// beginDrain flips the daemon into draining: /healthz starts failing so load
// balancers pull the instance while in-flight requests finish, and no
// reorganization may commit a swap afterwards.
func (s *server) beginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.metrics.draining.Set(1)
		s.log.Info("drain", "msg", "graceful shutdown started")
		s.flushLog()
	}
}

// requestCtx bounds one request by the per-request timeout.
func (s *server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.reqTimeout > 0 {
		return context.WithTimeout(r.Context(), s.reqTimeout)
	}
	return context.WithCancel(r.Context())
}

// noteCorrupt records a corrupt page in the quarantine set.
func (s *server) noteCorrupt(err error) {
	var cpe *snakes.CorruptPageError
	page := int64(-1)
	if errors.As(err, &cpe) {
		page = cpe.Page
	}
	s.markQuarantined(page, err.Error())
}

// markQuarantined records one page in the quarantine set, keeping the first
// error seen for it.
func (s *server) markQuarantined(page int64, reason string) {
	s.mu.Lock()
	if _, seen := s.quarantine[page]; !seen {
		s.quarantine[page] = reason
	}
	s.mu.Unlock()
}

// clearQuarantined re-admits one page after it verified clean. The healing
// state ends when the quarantine empties — the scrubber has worked through
// everything it detected.
func (s *server) clearQuarantined(page int64) {
	s.mu.Lock()
	delete(s.quarantine, page)
	if len(s.quarantine) == 0 {
		s.healing = false
	}
	s.mu.Unlock()
}

// quarantinedPages snapshots the quarantine set, sorted.
func (s *server) quarantinedPages() []int64 {
	s.mu.Lock()
	pages := make([]int64, 0, len(s.quarantine))
	for p := range s.quarantine {
		pages = append(pages, p)
	}
	s.mu.Unlock()
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

// healthState reports the serving health state machine's current state.
func (s *server) healthState() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.healing:
		return "healing"
	case len(s.quarantine) > 0:
		return "degraded"
	default:
		return "ok"
	}
}

// repairPage attempts one parity repair on behalf of the scrubber, driving
// the health state machine and the repair metrics. Returns true when the
// page now reads clean.
func (s *server) repairPage(ctx context.Context, st *snakes.FileStore, page int64) bool {
	s.mu.Lock()
	s.healing = true
	s.mu.Unlock()
	rsp := snakes.StartTraceLeaf(ctx, snakes.TraceKindRepair, "")
	rsp.SetAttr("page", page)
	err := st.RepairPage(page)
	rsp.SetError(err)
	rsp.End()
	if err != nil {
		s.metrics.repairFailures.Inc()
		s.markQuarantined(page, err.Error())
		s.mu.Lock()
		s.healing = false // damage this pass cannot heal: back to degraded
		s.mu.Unlock()
		s.log.Warn("repair", "page", page, "err", err)
		return false
	}
	s.metrics.pagesRepaired.Inc()
	s.clearQuarantined(page)
	s.log.Info("repair", "page", page, "msg", "reconstructed from parity")
	return true
}

// runScrubLoop is the paced background scrubber: it walks the store's pages
// continuously at about rate pages/sec (in batches, so the pacing costs one
// timer per batch rather than one per page), re-checks quarantined pages
// first, repairs checksum failures from parity on the spot, and re-admits
// repaired pages from quarantine. The loop follows generation hot-swaps by
// re-snapshotting the serving store every batch, rides out ErrClosed races
// with a swap, and stops when the daemon drains or ctx ends. Batches that
// performed repairs are retained as forced traces (a scrub span with repair
// children); uneventful batches discard their trace.
func (s *server) runScrubLoop(ctx context.Context, rate float64) {
	if rate <= 0 {
		return
	}
	batch := int64(rate / 10)
	if batch < 1 {
		batch = 1
	}
	interval := time.Duration(float64(batch) / rate * float64(time.Second))
	t := time.NewTicker(interval)
	defer t.Stop()
	var cursor int64
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if s.draining.Load() {
				return
			}
			cursor = s.scrubBatch(ctx, cursor, batch)
		}
	}
}

// scrubBatch checks up to n pages starting at cursor against the current
// generation and returns the cursor for the next batch (wrapping at the end
// of the store, so the walk is continuous).
func (s *server) scrubBatch(ctx context.Context, cursor, n int64) int64 {
	st := s.st()
	total := st.Layout().TotalPages()
	if total == 0 {
		return 0
	}
	if cursor >= total {
		cursor = 0
	}
	tctx, tr := s.traces.StartForced(ctx, "scrub")
	sctx, ssp := snakes.StartTraceSpan(tctx, snakes.TraceKindScrub, "")
	checked, repairs := int64(0), 0
	check := func(p int64) {
		if p >= total {
			return // quarantined id from an older, larger generation
		}
		err := st.CheckPage(p)
		checked++
		s.metrics.scrubPages.Inc()
		switch {
		case err == nil:
			s.clearQuarantined(p)
		case errors.Is(err, snakes.ErrClosed):
			// Generation swapped or daemon closing mid-batch; the next
			// batch re-snapshots the store.
		case errors.Is(err, snakes.ErrCorruptPage):
			repairs++
			s.repairPage(sctx, st, p)
		default:
			s.log.Warn("scrub", "page", p, "err", err)
		}
	}
	// Quarantined pages jump the queue: a page a query tripped over gets
	// repaired within one batch instead of waiting for the cursor.
	for _, p := range s.quarantinedPages() {
		check(p)
	}
	end := cursor + n
	if end > total {
		end = total
	}
	for p := cursor; p < end; p++ {
		check(p)
	}
	ssp.SetAttr("pages", checked)
	ssp.End()
	if repairs == 0 {
		tr.Discard()
	} else if tr != nil {
		res := tr.Finish(nil)
		s.metrics.observeTrace(tr, res)
	}
	if end >= total {
		return 0
	}
	return end
}

// writeErr maps the serving error taxonomy onto HTTP statuses: bad input
// 400, a reorganization already running 409, shed or closed 503, timed out
// 504, corruption 500 (after quarantining the page).
func (s *server) writeErr(w http.ResponseWriter, err error) {
	if sw, ok := w.(*statusWriter); ok && sw.ev != nil {
		sw.ev.Error = err.Error()
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, errUsage):
		status = http.StatusBadRequest
	case errors.Is(err, snakes.ErrReorgInProgress):
		status = http.StatusConflict
	case errors.Is(err, snakes.ErrOverloaded), errors.Is(err, snakes.ErrClosed):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	case errors.Is(err, snakes.ErrCorruptPage):
		s.noteCorrupt(err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

type queryResponse struct {
	Region     string   `json:"region"`
	Records    int64    `json:"records"`
	Sum        *float64 `json:"sum,omitempty"`
	Pages      int64    `json:"analyticPages"`
	PagesRead  int64    `json:"pagesRead"`
	Seeks      int64    `json:"observedSeeks"`
	DeltaCells int64    `json:"deltaCells,omitempty"` // cells served from the delta store
	Generation int64    `json:"generation"`
	TraceID    uint64   `json:"traceId,omitempty"` // set when this request was traced
}

// handleQuery answers GET /query?where=dim=lo..hi&...&sum=N. Unrestricted
// dimensions select their full range, like the query subcommand. The
// response reports both sides of the paper's cost model: the analytic page
// prediction and the physical reads/seeks this request actually caused,
// measured by a request-local pool tally — plus the store generation that
// served it, so clients can watch reorganizations land.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	q := r.URL.Query()
	region, err := parseRegion(s.schema, s.dims, q["where"])
	if err != nil {
		s.writeErr(w, usagef("%v", err))
		return
	}
	sumCol := -1
	if v := q.Get("sum"); v != "" {
		if sumCol, err = strconv.Atoi(v); err != nil || sumCol < 0 {
			s.writeErr(w, usagef("sum=%q: want a non-negative column index", v))
			return
		}
	}
	ev := snakes.EventFromContext(ctx)
	// Every valid query is demand evidence, observed before admission so
	// shed load still teaches the reorganizer what clients wanted.
	if class, cerr := s.schema.ClassOfRegion(region); cerr == nil {
		s.metrics.observeClass(class)
		if ev != nil {
			ev.Class = classLabel(class)
		}
		if s.reorg != nil {
			if oerr := s.reorg.Observe(class); oerr != nil {
				s.log.Warn("reorg", "msg", "observing query class", "err", oerr)
			}
		}
	}
	// Snapshot the serving store once and plan the region once: the plan's
	// analytic cost is the admission weight and the event's prediction, and
	// the same plan is what the reader executes — all against one generation
	// even if a reorganization swaps the pointer mid-request.
	st := s.st()
	gen := s.generation.Load()
	var tally snakes.PoolTally
	ctx = snakes.WithPoolTally(ctx, &tally)
	plan, err := st.Plan(ctx, region)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if ev != nil {
		ev.Generation = gen
		ev.PredictedPages = plan.Pages
		ev.PredictedSeeks = plan.Seeks
		ev.PlanCacheHit = tally.PlanHits() > 0
	}
	// Admission weight is the query's analytic page count, so one huge scan
	// and many point queries draw from the same budget.
	asp := snakes.StartTraceLeaf(ctx, snakes.TraceKindAdmission, "")
	asp.SetAttr("weight_pages", plan.Pages)
	admStart := s.clock()
	if err := s.adm.Acquire(ctx, plan.Pages); err != nil {
		asp.SetError(err)
		asp.End()
		s.writeErr(w, err)
		return
	}
	if ev != nil {
		ev.AdmissionWaitNs = s.clock().Sub(admStart).Nanoseconds()
	}
	asp.End()
	defer s.adm.Release(plan.Pages)

	resp := queryResponse{Region: region.String(), Pages: plan.Pages, Generation: gen}
	if tr := snakes.TraceFromContext(ctx); tr != nil {
		resp.TraceID = tr.ID()
	}
	var total float64
	err = st.ReadPlanCtx(ctx, plan, s.readOpts, func(cell int, record []byte) error {
		resp.Records++
		if sumCol >= 0 {
			v, err := rowColumn(record, sumCol)
			if err != nil {
				return usagef("%v", err)
			}
			total += v
		}
		return nil
	})
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if sumCol >= 0 {
		resp.Sum = &total
	}
	resp.PagesRead = tally.Stats().Misses
	resp.Seeks = tally.Seeks()
	resp.DeltaCells = tally.DeltaHits()
	if ev != nil {
		ev.PagesRead = resp.PagesRead
		ev.SeeksObserved = resp.Seeks
		ev.DeltaHits = resp.DeltaCells
		ev.Records = resp.Records
	}
	s.metrics.queryRecords.Add(resp.Records)
	s.metrics.queryDeltaCells.Add(resp.DeltaCells)
	s.metrics.pagesAnalytic.Observe(float64(plan.Pages))
	s.metrics.pagesRead.Observe(float64(resp.PagesRead))
	s.metrics.seeksAnalytic.Observe(float64(plan.Seeks))
	s.metrics.seeksObserved.Observe(float64(resp.Seeks))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// handleVerify scrubs the store under the request's context and records the
// outcome for /healthz.
func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	rep, err := s.st().VerifyCtx(ctx)
	if err != nil {
		s.mu.Lock()
		s.lastScrub = "aborted: " + err.Error()
		s.mu.Unlock()
		s.writeErr(w, err)
		return
	}
	problems := make([]string, 0, len(rep.Problems))
	for _, p := range rep.Problems {
		problems = append(problems, p.String())
		if errors.Is(p.Err, snakes.ErrCorruptPage) {
			s.noteCorrupt(fmt.Errorf("scrub: %w", p.Err))
		}
	}
	summary := fmt.Sprintf("clean: %d pages, %d records", rep.Pages, rep.Records)
	if !rep.OK() {
		summary = fmt.Sprintf("%d problem(s) in %d pages", len(rep.Problems), rep.Pages)
	}
	s.mu.Lock()
	s.lastScrub = summary
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"pages":    rep.Pages,
		"records":  rep.Records,
		"ok":       rep.OK(),
		"problems": problems,
	})
}

// handleReorg exposes the adaptive reorganizer: GET reports the policy's
// status (generation, regret, hysteresis, migration progress, last
// outcome), POST triggers one policy step now — with ?force=1 the
// thresholds are bypassed and the current DP optimum deployed
// unconditionally. A POST while a migration is already running answers 409.
func (s *server) handleReorg(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch r.Method {
	case http.MethodGet:
		if s.reorg == nil {
			json.NewEncoder(w).Encode(map[string]any{"enabled": false, "generation": s.generation.Load()})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"enabled": true, "status": s.reorg.Status()})
	case http.MethodPost:
		if s.reorg == nil {
			s.writeErr(w, usagef("adaptive reorganization is disabled; restart serve with -adapt"))
			return
		}
		// Migrations can legitimately outlast the per-request timeout, so
		// the trigger runs under the raw request context: a disconnecting
		// client cancels the migration cleanly (partial output removed).
		d, err := s.reorg.Trigger(r.Context(), r.URL.Query().Get("force") == "1")
		switch {
		case err == nil:
			json.NewEncoder(w).Encode(map[string]any{
				"triggered":  true,
				"generation": d.Generation,
				"regret":     d.Regret,
			})
		case snakes.ReorgSkipped(err):
			json.NewEncoder(w).Encode(map[string]any{"triggered": false, "reason": err.Error()})
		default:
			s.writeErr(w, err)
		}
	default:
		s.writeErr(w, usagef("method %s not allowed on /reorg", r.Method))
	}
}

// handleRepair serves POST /repair: one full repair sweep of the current
// generation, on demand — the synchronous counterpart of the background
// scrubber for operators who do not want to wait for the cursor to come
// around. Repaired pages leave quarantine immediately; unrepairable damage
// is quarantined with its typed error and reported in the response.
func (s *server) handleRepair(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, usagef("method %s not allowed on /repair; POST to run a repair sweep", r.Method))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	st := s.st()
	s.mu.Lock()
	s.healing = len(s.quarantine) > 0
	s.mu.Unlock()
	rep, err := st.RepairCtx(ctx)
	s.metrics.scrubPages.Add(rep.Pages)
	if err != nil {
		s.mu.Lock()
		s.healing = false
		s.mu.Unlock()
		s.writeErr(w, err)
		return
	}
	for _, p := range rep.Repaired {
		s.metrics.pagesRepaired.Inc()
		s.clearQuarantined(p)
	}
	failed := make([]string, 0, len(rep.Failed))
	for _, pr := range rep.Failed {
		s.metrics.repairFailures.Inc()
		s.markQuarantined(pr.Page, pr.String())
		failed = append(failed, pr.String())
	}
	if rep.OK() {
		// Everything detectable was repaired: any quarantine leftovers are
		// stale entries for pages that now read clean.
		s.mu.Lock()
		s.quarantine = make(map[int64]string)
		s.healing = false
		s.mu.Unlock()
	} else {
		s.mu.Lock()
		s.healing = false
		s.mu.Unlock()
	}
	s.log.Info("repair",
		"req", reqIDFrom(ctx), "pages", rep.Pages, "repaired", len(rep.Repaired), "failed", len(rep.Failed))
	if ev := snakes.EventFromContext(ctx); ev != nil {
		ev.Records = rep.Pages
	}
	body := map[string]any{
		"pages":    rep.Pages,
		"repaired": rep.Repaired,
		"failed":   failed,
		"ok":       rep.OK(),
		"health":   s.healthState(),
	}
	if tr := snakes.TraceFromContext(ctx); tr != nil {
		body["traceId"] = tr.ID()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// handleTraces serves /debug/traces: without parameters, the retained
// traces newest-first as summary lines plus the recorder's retention
// stats; with ?id=N, the full span tree of one retained trace. A trace
// that was never retained (or has been overwritten in its ring) answers
// 404 — retention is a window, not an archive.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			s.writeErr(w, usagef("id=%q: want a trace id", idStr))
			return
		}
		tr := s.traces.Get(id)
		if tr == nil {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf("trace %d is not retained", id)})
			return
		}
		json.NewEncoder(w).Encode(tr.DetailView())
		return
	}
	snap := s.traces.Snapshot()
	sums := make([]snakes.TraceSummary, 0, len(snap))
	for _, tr := range snap {
		sums = append(sums, tr.Summarize())
	}
	json.NewEncoder(w).Encode(map[string]any{
		"enabled": s.traces.Enabled(),
		"config": map[string]any{
			"sampleEvery":     s.traces.Config().SampleEvery,
			"slowThresholdMs": float64(s.traces.Config().SlowThreshold.Nanoseconds()) / 1e6,
		},
		"stats":  s.traces.Stats(),
		"traces": sums,
	})
}

// handleHealthz reports serving health: pool and admission stats, the
// quarantined page set, and the last scrub outcome. Status degrades when
// any page is quarantined, and the endpoint fails outright with 503
// "draining" the moment graceful shutdown begins — a load balancer probing
// /healthz must pull the instance immediately, not keep routing to it for
// the rest of the drain window.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "draining"})
		return
	}
	s.mu.Lock()
	lastScrub := s.lastScrub
	s.mu.Unlock()
	pages := s.quarantinedPages()
	st := s.st()
	body := map[string]any{
		"status":           s.healthState(),
		"generation":       s.generation.Load(),
		"startedAt":        s.started.UTC().Format(time.RFC3339),
		"uptimeSeconds":    time.Since(s.started).Seconds(),
		"pool":             st.Pool().Stats(),
		"admission":        s.adm.StatsSnapshot(),
		"quarantinedPages": pages,
		"lastScrub":        lastScrub,
		"parity":           map[string]any{"attached": st.HasParity(), "group": st.ParityGroup()},
		"events": map[string]any{
			"published":   s.events.Published(),
			"overwritten": s.events.Overwritten(),
			"capacity":    s.events.Capacity(),
		},
	}
	if calib := s.calib.Snapshot(); len(calib) > 0 {
		body["calibration"] = map[string]any{
			"classes": calib,
			"drifted": s.calib.DriftedClasses(),
		}
	}
	if s.slo != nil {
		classes, worst := s.slo.Status()
		body["slo"] = map[string]any{
			"state":   worst,
			"classes": classes,
		}
		body["sloState"] = worst
	}
	if s.ing != nil {
		s.ing.mu.Lock()
		l := s.ing.log
		ticks, cells, bytes := s.ing.comp.Ticks()
		ingest := map[string]any{
			"pendingCells":       l.PendingCells(),
			"pendingBytes":       l.PendingBytes(),
			"puts":               l.Puts(),
			"compactionTicks":    ticks,
			"compactedCells":     cells,
			"compactedBytes":     bytes,
			"compactionLagSecs":  l.OldestPendingAge(time.Now()).Seconds(),
			"writeRateBytesPerS": s.ing.rate.Rate(time.Now()),
		}
		s.ing.mu.Unlock()
		body["ingest"] = ingest
	}
	json.NewEncoder(w).Encode(body)
}

// runReorgLoop is the daemon's background reorganization ticker: each tick
// runs one policy step under a forced trace, so a migration's DP, copy,
// flush, catalog-commit, swap, drain, and verify spans all land in
// /debug/traces. Ticks where the policy declines (or a migration is
// already running) discard their candidate trace — an uneventful tick is
// not worth a retained slot. Errors are absorbed into the reorganizer's
// status and metrics, exactly like Reorganizer.Run; only ctx ends the loop.
func (s *server) runReorgLoop(ctx context.Context, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			tctx, tr := s.traces.StartForced(ctx, "reorg-tick")
			_, err := s.reorg.Trigger(tctx, false)
			switch {
			case snakes.ReorgSkipped(err) || errors.Is(err, snakes.ErrReorgInProgress):
				tr.Discard()
			default:
				res := tr.Finish(err)
				if tr != nil {
					s.metrics.observeTrace(tr, res)
				}
			}
		}
	}
}

// serve runs the HTTP server on ln until ctx is cancelled, then drains
// gracefully: mark the server draining (so /healthz fails over and no
// reorganization can commit a swap), stop accepting, let in-flight requests
// finish (bounded by drain), and close the store — which flushes the pool
// and fsyncs — before returning. Split from cmdServe so tests can drive it
// with their own listener and context.
func serve(ctx context.Context, ln net.Listener, srv *server, drain time.Duration) error {
	hs := &http.Server{Handler: srv.handler()}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case err := <-errc:
		srv.beginDrain()
		srv.closeStore()
		return err
	case <-ctx.Done():
	}
	srv.beginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	shutdownErr := hs.Shutdown(sctx)
	closeErr := srv.closeStore()
	if closeErr != nil && !errors.Is(closeErr, snakes.ErrClosed) {
		return closeErr
	}
	return shutdownErr
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	catPath := fs.String("catalog", "catalog.json", "catalog file")
	storePath := fs.String("store", "facts.db", "page file from build (base path; generations live beside it)")
	frames := fs.Int("frames", 1024, "buffer pool frames")
	addr := fs.String("addr", "127.0.0.1:7133", "listen address")
	maxInflight := fs.Int64("max-inflight", 1024, "admission capacity in analytic pages")
	queueTimeout := fs.Duration("queue-timeout", 100*time.Millisecond, "max wait for admission before shedding with 503")
	reqTimeout := fs.Duration("request-timeout", 10*time.Second, "per-request deadline")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	readParallel := fs.Int("read-parallel", 1, "concurrent fragment fetches per query (1 = fragments in order on the request goroutine)")
	readAhead := fs.Int("read-ahead", 8, "pages a fragment loads per span read; effective when -read-parallel > 1")
	scrubRate := fs.Float64("scrub-rate", 128, "background scrub pace in pages/sec; 0 disables the scrubber")
	parityGroup := fs.Int("parity-group", snakes.DefaultParityGroup, "data pages per parity page when (re)building sidecars")
	traceSample := fs.Int("trace-sample", 16, "trace every Nth request for /debug/traces; 0 disables head sampling")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "always retain traces of requests at least this slow; 0 disables")
	traceCapacity := fs.Int("trace-capacity", 256, "retained sampled traces (slow/errored traces keep a quarter of this on top)")
	adapt := fs.Bool("adapt", false, "re-cluster the store automatically when the live workload drifts")
	adaptInterval := fs.Duration("adapt-interval", 30*time.Second, "how often the reorg policy re-evaluates the workload")
	adaptHalfLife := fs.Duration("adapt-half-life", 15*time.Minute, "decay half-life of the live workload estimate")
	adaptThreshold := fs.Float64("adapt-threshold", 1.2, "cost regret factor that arms a reorganization (must exceed 1)")
	adaptHysteresis := fs.Int("adapt-hysteresis", 3, "consecutive over-threshold evaluations required before acting")
	adaptMinInterval := fs.Duration("adapt-min-interval", 10*time.Minute, "minimum time between reorganization attempts")
	adaptMinWeight := fs.Float64("adapt-min-weight", 100, "minimum decayed observation mass before the policy may act")
	adaptCalibrated := fs.Bool("adapt-calibrated", false, "scale the reorg policy's deployed cost by the calibration watch's observed/predicted seek ratio")
	ingestOn := fs.Bool("ingest", false, "accept cell upserts on POST /ingest (delta store + background compaction)")
	ingestSync := fs.String("ingest-sync", "batch", "delta log fsync policy: always, batch, or none")
	ingestBatchKB := fs.Int("ingest-batch-kb", 256, "fsync batch size in KiB for -ingest-sync=batch")
	ingestMaxPendingMB := fs.Int("ingest-max-pending-mb", 64, "delta backlog ceiling in MiB before puts shed with 503; 0 = unbounded")
	compactInterval := fs.Duration("compact-interval", time.Second, "background compaction tick interval")
	compactRegion := fs.Int("compact-region", 64, "compaction scoring window in linearization positions")
	compactTickKB := fs.Int("compact-tick-kb", 1024, "delta bytes in KiB folded into the base file per compaction tick")
	eventCap := fs.Int("event-capacity", defaultEventCapacity, "wide events retained for /debug/events")
	sloSpec := fs.String("slo", "", "per-class latency objectives, e.g. 'default=250ms@99.9;0,2=50ms@99'; empty disables the SLO engine")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cat, schema, strat, err := loadCatalog(*catPath)
	if err != nil {
		return err
	}
	if cat.Dirty {
		return fmt.Errorf("catalog %s is dirty: a build was interrupted before completion; re-run build before serving", *catPath)
	}
	if cat.BytesPer == nil {
		return fmt.Errorf("catalog has no load state; run build first")
	}
	if err := checkRowFormat(cat, *catPath); err != nil {
		return err
	}
	adm, err := snakes.NewAdmission(*maxInflight, *queueTimeout)
	if err != nil {
		return usagef("%v", err)
	}
	// Resolve the catalog's live generation and sweep any stale generation
	// files a crash mid-reorganization left behind.
	active := activeStorePath(cat, *storePath)
	if removed, err := cleanStaleGenerations(*storePath, active); err != nil {
		return err
	} else if len(removed) > 0 {
		fmt.Fprintf(os.Stderr, "snakestore: removed stale generation file(s): %v\n", removed)
	}
	store, err := strat.OpenFileStore(active, cat.BytesPer, cat.PageBytes, *frames, cat.LoadedBytes)
	if err != nil {
		return err
	}
	// Attach the parity sidecar so the scrubber can repair, rebuilding it
	// when missing or mismatched (older builds, changed geometry). A store
	// too damaged to build parity still serves — detection keeps working,
	// repair just has nothing to work from until the damage is resolved.
	parityPath := snakes.ParityPath(active)
	if err := store.AttachParity(parityPath); err != nil {
		fmt.Fprintf(os.Stderr, "snakestore: parity sidecar %s unusable (%v); rebuilding\n", parityPath, err)
		if werr := store.WriteParity(parityPath, *parityGroup); werr != nil {
			fmt.Fprintf(os.Stderr, "snakestore: cannot build parity sidecar (%v); serving without repair\n", werr)
		}
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		store.Close()
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	tcfg := snakes.TraceConfig{
		SampleEvery:      *traceSample,
		SlowThreshold:    *traceSlow,
		Capacity:         *traceCapacity,
		RetainedCapacity: *traceCapacity / 4,
	}
	srv := newServer(store, schema, schemaDims(cat), adm, *reqTimeout, cat.Generation, tcfg)
	var stopLog func()
	srv.log, srv.flushLog, stopLog = newBufferedLogger(os.Stderr, accessLogFlushEvery)
	defer stopLog()
	srv.pprof = *pprofOn
	srv.readOpts = snakes.ReadOptions{Parallelism: *readParallel, Readahead: *readAhead}
	if *parityGroup > 0 {
		srv.parityGroup = *parityGroup
	}
	if *eventCap > 0 && *eventCap != defaultEventCapacity {
		srv.events = snakes.NewEventRing(*eventCap)
	}
	if *sloSpec != "" {
		cfg, serr := snakes.ParseSLOSpec(*sloSpec)
		if serr != nil {
			store.Close()
			return usagef("%v", serr)
		}
		if serr := srv.enableSLO(cfg); serr != nil {
			store.Close()
			return usagef("%v", serr)
		}
	}
	if *scrubRate > 0 {
		go srv.runScrubLoop(ctx, *scrubRate)
	}
	if *ingestOn {
		pol, perr := snakes.ParseSyncPolicy(*ingestSync)
		if perr != nil {
			store.Close()
			return usagef("%v", perr)
		}
		dopt := snakes.DeltaOptions{
			Policy:          pol,
			BatchBytes:      int64(*ingestBatchKB) << 10,
			MaxPendingBytes: int64(*ingestMaxPendingMB) << 20,
		}
		if err := srv.enableIngest(*catPath, *storePath, cat, dopt, ingestConfig{
			regionCells: *compactRegion,
			tickBytes:   int64(*compactTickKB) << 10,
		}); err != nil {
			store.Close()
			return err
		}
		go srv.runCompactorLoop(ctx, *compactInterval)
	}
	if *adapt {
		srv.calibrateRegret = *adaptCalibrated
		cfg := snakes.DefaultReorgConfig()
		cfg.CheckInterval = *adaptInterval
		cfg.HalfLife = *adaptHalfLife
		cfg.RegretThreshold = *adaptThreshold
		cfg.Hysteresis = *adaptHysteresis
		cfg.MinInterval = *adaptMinInterval
		cfg.MinWeight = *adaptMinWeight
		if err := srv.enableReorg(*catPath, *storePath, *frames, cat, strat, cfg); err != nil {
			store.Close()
			return usagef("%v", err)
		}
		go srv.runReorgLoop(ctx, cfg.CheckInterval)
	}
	fmt.Printf("serving %s (generation %d) on http://%s (capacity %d pages, queue timeout %v, adapt %v, ingest %v)\n",
		active, cat.Generation, ln.Addr(), *maxInflight, *queueTimeout, *adapt, *ingestOn)
	if err := serve(ctx, ln, srv, *drainTimeout); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("drained and closed cleanly")
	return nil
}
