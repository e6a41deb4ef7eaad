package main

import (
	"context"
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
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	snakes "repro"
	"repro/internal/rowcodec"
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
	dict       *rowcodec.Dict // the catalog's row dictionary: fixed at build
	adm        *snakes.Admission
	reqTimeout time.Duration
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
	regionCells     int      // a migration's scoring region, in target positions (-compact-region)
	cat             *catalog // kept without its per-cell arrays; see commitCatalog
	catFill         uint64   // the serving store's FillEpoch the catalog on disk records

	draining atomic.Bool   // set once graceful shutdown begins
	reqID    atomic.Uint64 // request id sequence for log correlation

	// Self-healing: the parity group size for regenerated sidecars and the
	// health state machine, derived from the quarantine and the healing
	// flag: ok (quarantine empty), degraded (damage found), healing (a
	// POST /repair sweep is working the quarantine).
	parityGroup int

	mu         sync.Mutex
	quarantine map[int64]quarantined // corrupt page -> what is known of it
	healing    bool                  // a POST /repair sweep is working the quarantine
	lastScrub  string                // outcome of the last whole scrub: /verify, /repair or a maintainer pass

	// Background upkeep (maintain.go), ticked by startMaintainer.
	maint *maintainer
}

func newServer(store *snakes.FileStore, schema *snakes.Schema, cat *catalog, adm *snakes.Admission, reqTimeout time.Duration, tcfg snakes.TraceConfig) *server {
	gen := cat.Generation
	s := &server{
		schema:      schema,
		dims:        schemaDims(cat),
		dict:        cat.Dict,
		adm:         adm,
		reqTimeout:  reqTimeout,
		log:         slog.New(slog.NewTextHandler(io.Discard, nil)),
		flushLog:    func() {},
		quarantine:  make(map[int64]quarantined),
		parityGroup: snakes.DefaultParityGroup,
		traces:      snakes.NewTraceRecorder(tcfg),
		started:     time.Now(),
		clock:       time.Now,
		events:      snakes.NewEventRing(defaultEventCapacity),
		calib:       snakes.NewCalibration(snakes.DefaultCalibrationAlpha, snakes.DefaultCalibrationThreshold, snakes.DefaultCalibrationMinWeight),
		maint:       newMaintainer(maintainBudget),
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
	s.registerResidentBytes()
	s.metrics.reg.GaugeFunc("snakestore_calibration_seek_correction", "global observed/predicted seek ratio applied to the reorg policy's deployed cost", func() float64 { return s.calib.SeekCorrection() })
	s.armStore(store)
	return s
}

// residentOwners is the closed owner set of snakestore_resident_bytes: what
// the daemon keeps resident, measured from lengths and capacities. pool_frames
// lives outside the Go heap (the touched part of the frame slab); the rest is
// heap, and go_heap_other is the live heap none of them accounts for, so the
// family sums to slab + live heap and the distance to RssAnon is collector
// headroom, stacks and runtime metadata.
var residentOwners = []string{"pool_frames", "cell_directory", "order", "plan_cache", "overlay", "event_ring", "trace_ring", "go_heap_other"}

// residentBytes measures one owner against the store now serving.
func (s *server) residentBytes(owner string) float64 {
	st := s.st()
	switch owner {
	case "pool_frames":
		return float64(st.Pool().SlabBytes())
	case "cell_directory":
		dir, _ := st.ResidentBytes()
		return float64(dir)
	case "order":
		return float64(st.Layout().Order().TableBytes())
	case "plan_cache":
		_, plans := st.ResidentBytes()
		return float64(plans)
	case "overlay":
		if s.ing == nil {
			return 0
		}
		s.ing.mu.Lock()
		defer s.ing.mu.Unlock()
		return float64(s.ing.log.ResidentBytes())
	case "event_ring":
		return float64(s.events.ResidentBytes())
	case "trace_ring":
		return float64(s.traces.ResidentBytes())
	}
	heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(heap)
	other := float64(heap[0].Value.Uint64())
	for _, o := range residentOwners {
		if o != "pool_frames" && o != "go_heap_other" {
			other -= s.residentBytes(o)
		}
	}
	return max(other, 0)
}

func (s *server) registerResidentBytes() {
	for _, owner := range residentOwners {
		s.metrics.reg.GaugeFunc("snakestore_resident_bytes", "bytes the daemon keeps resident, by owner (pool_frames is off the Go heap; go_heap_other is the live heap no other owner accounts for)",
			func() float64 { return s.residentBytes(owner) }, "owner", owner)
	}
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

// armStore routes a store's per-fragment completion samples from the read
// executor into the fragment latency histogram and has its scrub walk count
// rows with the catalog's codec. Called for every store generation that
// starts serving, since both hooks live on the store, not the server.
func (s *server) armStore(st *snakes.FileStore) {
	st.SetFragmentObserver(func(_ int64, seconds float64) {
		s.metrics.fragSeconds.Observe(seconds)
	})
	st.SetRowCounter(countRows(s.dict))
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

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.instrument("query", true, s.handleQuery))
	mux.HandleFunc("/verify", s.instrument("verify", true, s.handleScrub(false)))
	mux.HandleFunc("/healthz", s.instrument("healthz", false, s.handleHealthz))
	mux.HandleFunc("/reorg", s.instrument("reorg", true, s.handleReorg))
	mux.HandleFunc("/repair", s.instrument("repair", true, s.handleScrub(true)))
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

// beginDrain flips the daemon into draining: /healthz starts failing so load
// balancers pull the instance while in-flight requests finish, and no
// reorganization may commit a swap afterwards.
func (s *server) beginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.metrics.draining.Set(1)
		s.log.Info("drain", "how", "graceful shutdown started")
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
	// Accepted so existing command lines still start; every query reads its
	// seek runs in order, in span windows sized by -frames.
	fs.Int("read-parallel", 1, "ignored: kept so existing command lines start")
	fs.Int("read-ahead", 8, "ignored: kept so existing command lines start")
	parityGroup := fs.Int("parity-group", snakes.DefaultParityGroup, "data pages per parity page when (re)building sidecars")
	traceSample := fs.Int("trace-sample", 16, "trace every Nth request for /debug/traces; 0 disables head sampling")
	traceSlow := fs.Duration("trace-slow", 250*time.Millisecond, "always retain traces of requests at least this slow; 0 disables")
	traceCapacity := fs.Int("trace-capacity", 256, "retained sampled traces (slow/errored traces keep a quarter of this on top)")
	adapt := fs.Bool("adapt", false, "re-cluster the store automatically when the live workload drifts")
	adaptInterval := fs.Duration("adapt-interval", 30*time.Second, "how often the reorg policy re-evaluates the workload, on a maintenance tick (0: every tick)")
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
	maintainInterval := fs.Duration("maintain-interval", time.Second, "background maintenance tick: each folds deltas, advances a migration and scrubs, 1 MiB of I/O in all")
	compactRegion := fs.Int("compact-region", 64, "scoring window in linearization positions, for compaction and a reorganization's copy")
	eventCap := fs.Int("event-capacity", defaultEventCapacity, "wide events retained for /debug/events")
	sloSpec := fs.String("slo", "", "per-class latency objectives, e.g. 'default=250ms@99.9;0,2=50ms@99'; empty disables the SLO engine")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maintainInterval <= 0 {
		return usagef("-maintain-interval %v is not a positive tick", *maintainInterval)
	}
	cat, schema, strat, err := loadServableCatalog(*catPath)
	if err != nil {
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
	// The store has validated the two per-cell arrays and keeps its own
	// 16-byte directory; a commit reads them back from it (commitCatalog).
	cat.BytesPer, cat.LoadedBytes = nil, nil
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
	srv := newServer(store, schema, cat, adm, *reqTimeout, tcfg)
	var stopLog func()
	srv.log, srv.flushLog, stopLog = newBufferedLogger(os.Stderr, accessLogFlushEvery)
	defer stopLog()
	srv.pprof = *pprofOn
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
		if err := srv.enableIngest(*catPath, *storePath, cat, dopt, *compactRegion); err != nil {
			store.Close()
			return err
		}
	}
	if *adapt {
		srv.calibrateRegret = *adaptCalibrated
		cfg := snakes.ReorgConfig{HalfLife: *adaptHalfLife, Smoothing: snakes.DefaultReorgConfig().Smoothing, MinWeight: *adaptMinWeight,
			RegretThreshold: *adaptThreshold, Hysteresis: *adaptHysteresis, MinInterval: *adaptMinInterval}
		if err := srv.enableReorg(*catPath, *storePath, *frames, *compactRegion, cat, strat, cfg); err != nil {
			store.Close()
			return usagef("%v", err)
		}
	}
	srv.startMaintainer(ctx, *maintainInterval, *adaptInterval)
	fmt.Printf("serving %s (generation %d) on http://%s (capacity %d pages, queue timeout %v, adapt %v, ingest %v)\n",
		active, cat.Generation, ln.Addr(), *maxInflight, *queueTimeout, *adapt, *ingestOn)
	if err := serve(ctx, ln, srv, *drainTimeout); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	fmt.Println("drained and closed cleanly")
	return nil
}
