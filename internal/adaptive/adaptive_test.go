package adaptive

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hierarchy"
	"repro/internal/lattice"
	"repro/internal/trace"
	"repro/internal/workload"
)

// testLattice is the 4x4 warehouse used throughout: two binary dimensions
// of two levels each, so class (0,2) is a single A-row and (2,0) a single
// B-column — workloads with opposite optimal linearizations.
func testLattice() *lattice.Lattice {
	return lattice.New(hierarchy.MustSchema(hierarchy.Binary("A", 2), hierarchy.Binary("B", 2)))
}

var (
	rowClass = lattice.Point{0, 2} // one A leaf, all of B
	colClass = lattice.Point{2, 0} // all of A, one B leaf
)

// optimalFor returns the DP-optimal path for a point workload on class c.
func optimalFor(t *testing.T, l *lattice.Lattice, c lattice.Point) *core.Path {
	t.Helper()
	res, err := core.Optimal(workload.Point(l, c))
	if err != nil {
		t.Fatal(err)
	}
	return res.Path
}

// testConfig is an aggressive policy suitable for unit tests: no decay, no
// waiting.
func testConfig() Config {
	return Config{
		CheckInterval:   time.Millisecond,
		HalfLife:        0,
		Smoothing:       0.01,
		MinWeight:       1,
		RegretThreshold: 1.05,
		Hysteresis:      2,
		MinInterval:     0,
	}
}

// recordingMigrator collects the decisions it was asked to execute.
type recordingMigrator struct {
	mu        sync.Mutex
	decisions []*Decision
	err       error
	block     chan struct{} // when non-nil, migration waits here
}

func (m *recordingMigrator) migrate(ctx context.Context, d *Decision) error {
	if m.block != nil {
		select {
		case <-m.block:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	m.mu.Lock()
	m.decisions = append(m.decisions, d)
	m.mu.Unlock()
	if d.Migrate.Progress != nil {
		d.Migrate.Progress(16, 16)
	}
	return m.err
}

func (m *recordingMigrator) count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.decisions)
}

func newTestController(t *testing.T, cfg Config, m *recordingMigrator) *Controller {
	t.Helper()
	l := testLattice()
	c, err := New(l, optimalFor(t, l, rowClass), true, 0, m.migrate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func observeN(t *testing.T, c *Controller, class lattice.Point, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := c.Observe(class); err != nil {
			t.Fatal(err)
		}
	}
}

func TestControllerReorganizesOnSustainedRegret(t *testing.T) {
	m := &recordingMigrator{}
	c := newTestController(t, testConfig(), m)

	// Matching traffic: regret stays at 1, the policy never fires.
	observeN(t, c, rowClass, 50)
	ev, d, err := c.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if d != nil {
		t.Fatalf("matching workload produced a reorg decision (regret %v)", ev.Regret)
	}
	if ev.Regret > 1.01 {
		t.Errorf("regret on matching workload = %v, want ~1", ev.Regret)
	}

	// Shift to column traffic: the deployed row order pays ~4x the seeks.
	observeN(t, c, colClass, 500)
	ev, d, err = c.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Regret <= 1.05 {
		t.Fatalf("regret after shift = %v, want > threshold", ev.Regret)
	}
	if d != nil {
		t.Fatal("hysteresis=2 must not act on the first eligible evaluation")
	}
	_, d, err = c.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if d == nil {
		t.Fatal("second consecutive eligible evaluation should produce a decision")
	}
	if d.Generation != 1 {
		t.Errorf("decision generation = %d, want 1", d.Generation)
	}
	want := optimalFor(t, testLattice(), colClass)
	if !d.Path.Equal(want) {
		t.Errorf("decision path %v, want the column optimum %v", d.Path, want)
	}

	if err := c.reorganize(context.Background(), d); err != nil {
		t.Fatal(err)
	}
	if m.count() != 1 {
		t.Fatalf("migrator ran %d times, want 1", m.count())
	}
	st := c.Status()
	if st.Generation != 1 || st.Reorgs != 1 || st.LastOutcome != "success" {
		t.Errorf("post-reorg status = %+v", st)
	}
	if st.MigratedCells != 16 || st.TotalCells != 16 {
		t.Errorf("progress not recorded: %d/%d", st.MigratedCells, st.TotalCells)
	}
	cur, snaked := c.Strategy()
	if !cur.Equal(want) || !snaked {
		t.Errorf("controller did not adopt the new strategy")
	}

	// The new strategy serves the new workload at regret ~1.
	ev, d, err = c.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if d != nil || ev.Regret > 1.01 {
		t.Errorf("post-reorg evaluation: regret %v, decision %v", ev.Regret, d)
	}
}

func TestControllerHysteresisResetsOnTransientSpike(t *testing.T) {
	m := &recordingMigrator{}
	cfg := testConfig()
	cfg.Hysteresis = 3
	c := newTestController(t, cfg, m)

	observeN(t, c, colClass, 100)
	if _, d, err := c.Evaluate(); err != nil || d != nil {
		t.Fatalf("first eligible evaluation must not act (d=%v err=%v)", d, err)
	}
	// The workload swings back before the window closes: trips reset.
	observeN(t, c, rowClass, 10000)
	if _, d, err := c.Evaluate(); err != nil || d != nil {
		t.Fatalf("recovered workload must not act (d=%v err=%v)", d, err)
	}
	if st := c.Status(); st.Trips != 0 {
		t.Errorf("trips = %d after recovery, want 0", st.Trips)
	}
	if m.count() != 0 {
		t.Errorf("migrator ran %d times on an oscillating workload", m.count())
	}
}

func TestControllerMinIntervalAndMinWeight(t *testing.T) {
	m := &recordingMigrator{}
	cfg := testConfig()
	cfg.Hysteresis = 1
	cfg.MinInterval = time.Hour
	cfg.MinWeight = 50
	c := newTestController(t, cfg, m)
	clk := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return clk }

	// Below MinWeight: regret is high but the evidence is too thin.
	observeN(t, c, colClass, 10)
	if ev, d, err := c.Evaluate(); err != nil || d != nil {
		t.Fatalf("under-weight evaluation acted (d=%v err=%v)", d, err)
	} else if ev.Eligible {
		t.Error("under-weight evaluation marked eligible")
	}

	observeN(t, c, colClass, 90)
	_, d, err := c.Evaluate()
	if err != nil || d == nil {
		t.Fatalf("weighted evaluation should act (err=%v)", err)
	}
	if err := c.reorganize(context.Background(), d); err != nil {
		t.Fatal(err)
	}

	// Immediately regret spikes again (force the strategy stale by hand):
	// MinInterval suppresses the follow-up.
	observeN(t, c, rowClass, 10000)
	if _, d, _ := c.Evaluate(); d != nil {
		t.Fatal("reorg within MinInterval of the last one")
	}
	clk = clk.Add(2 * time.Hour)
	if _, d, _ := c.Evaluate(); d == nil {
		t.Fatal("reorg still suppressed after MinInterval elapsed")
	}
}

func TestControllerFailedMigrationRollsBack(t *testing.T) {
	m := &recordingMigrator{err: errors.New("disk full")}
	cfg := testConfig()
	cfg.Hysteresis = 1
	c := newTestController(t, cfg, m)
	observeN(t, c, colClass, 100)
	_, d, err := c.Evaluate()
	if err != nil || d == nil {
		t.Fatalf("expected a decision (err=%v)", err)
	}
	if err := c.reorganize(context.Background(), d); err == nil {
		t.Fatal("failed migration should surface its error")
	}
	st := c.Status()
	if st.Generation != 0 || st.Failures != 1 || st.LastOutcome != "failed" || st.LastError == "" {
		t.Errorf("failure status = %+v", st)
	}
	cur, _ := c.Strategy()
	if !cur.Equal(optimalFor(t, testLattice(), rowClass)) {
		t.Error("failed migration changed the deployed strategy")
	}
}

func TestControllerCanceledMigration(t *testing.T) {
	m := &recordingMigrator{block: make(chan struct{})}
	cfg := testConfig()
	cfg.Hysteresis = 1
	c := newTestController(t, cfg, m)
	observeN(t, c, colClass, 100)
	_, d, err := c.Evaluate()
	if err != nil || d == nil {
		t.Fatalf("expected a decision (err=%v)", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := c.reorganize(ctx, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled migration error = %v", err)
	}
	st := c.Status()
	if st.LastOutcome != "canceled" || st.Generation != 0 {
		t.Errorf("cancel status = %+v", st)
	}
}

func TestControllerSerializesReorgs(t *testing.T) {
	m := &recordingMigrator{block: make(chan struct{})}
	cfg := testConfig()
	cfg.Hysteresis = 1
	c := newTestController(t, cfg, m)
	observeN(t, c, colClass, 100)
	_, d, err := c.Evaluate()
	if err != nil || d == nil {
		t.Fatalf("expected a decision (err=%v)", err)
	}
	done := make(chan error, 1)
	go func() { done <- c.reorganize(context.Background(), d) }()
	// Wait until the first reorg holds the slot.
	for {
		if c.Status().InProgress {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := c.Trigger(context.Background(), true); !errors.Is(err, ErrReorgInProgress) {
		t.Fatalf("concurrent trigger error = %v", err)
	}
	close(m.block)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if c.Status().Generation != 1 {
		t.Errorf("generation = %d after serialized reorg", c.Status().Generation)
	}
}

func TestControllerForceTrigger(t *testing.T) {
	m := &recordingMigrator{}
	c := newTestController(t, testConfig(), m)
	// Low regret, zero trips — but force deploys the optimum anyway.
	observeN(t, c, rowClass, 100)
	if _, err := c.Trigger(context.Background(), false); !Skipped(err) {
		t.Fatalf("unforced trigger on a happy workload: %v", err)
	}
	d, err := c.Trigger(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Generation != 1 {
		t.Fatalf("forced trigger decision = %+v", d)
	}
	if c.Status().Generation != 1 {
		t.Errorf("forced trigger did not commit")
	}
}

// TestControllerTracedTriggerRecordsDPAndMigrate: a traced policy step
// that fires records exactly one DP rerun and one migrate span carrying the
// new generation, and runs the migrator under the migrate span, so the copy
// and flush spans of storage.MigrateCtx (TestTracedMigrationRecordsCopyAndFlush)
// nest beneath it — a slow reorganization is attributable to its phase.
func TestControllerTracedTriggerRecordsDPAndMigrate(t *testing.T) {
	l := testLattice()
	migrate := func(ctx context.Context, d *Decision) error {
		trace.StartLeaf(ctx, trace.KindCopy, "").End()
		return nil
	}
	cfg := testConfig()
	cfg.Hysteresis = 1
	c, err := New(l, optimalFor(t, l, rowClass), true, 0, migrate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	observeN(t, c, colClass, 500)
	rec := trace.NewRecorder(trace.Config{Capacity: 1, RetainedCapacity: 1})
	ctx, tr := rec.StartForced(context.Background(), "reorg-tick")
	d, err := c.Trigger(ctx, false)
	tr.Finish(err)
	if err != nil || d == nil || d.Generation != 1 {
		t.Fatalf("traced trigger = %+v, %v; want a generation-1 reorganization", d, err)
	}
	kinds := map[string][]trace.Span{}
	for _, sp := range tr.Spans() {
		kinds[sp.Kind] = append(kinds[sp.Kind], sp)
	}
	if len(kinds[trace.KindDP]) != 1 || len(kinds[trace.KindMigrate]) != 1 || len(kinds[trace.KindCopy]) != 1 {
		t.Fatalf("trace has %d dp, %d migrate, %d copy spans, want one each: %+v",
			len(kinds[trace.KindDP]), len(kinds[trace.KindMigrate]), len(kinds[trace.KindCopy]), tr.Spans())
	}
	mig := kinds[trace.KindMigrate][0]
	if len(mig.Attrs) != 1 || mig.Attrs[0].Key != "generation" || mig.Attrs[0].Value != 1 {
		t.Errorf("migrate span attrs = %+v, want generation 1", mig.Attrs)
	}
	if cp := kinds[trace.KindCopy][0]; cp.Parent != mig.ID {
		t.Errorf("the migrator's copy span has parent %d, want the migrate span %d", cp.Parent, mig.ID)
	}
}

func TestControllerRunLoop(t *testing.T) {
	m := &recordingMigrator{}
	cfg := testConfig()
	cfg.Hysteresis = 2
	c := newTestController(t, cfg, m)
	observeN(t, c, colClass, 500)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	loopDone := make(chan struct{})
	go func() { c.Run(ctx); close(loopDone) }()

	deadline := time.Now().Add(5 * time.Second)
	for c.Status().Reorgs == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("run loop never reorganized: %+v", c.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	<-loopDone
	if got := c.Status().Generation; got != 1 {
		t.Errorf("generation = %d, want 1", got)
	}
	// Regret math is visible in the executed decision.
	m.mu.Lock()
	d := m.decisions[0]
	m.mu.Unlock()
	if d.Regret <= 1.05 || d.CurrentCost <= d.OptimalCost {
		t.Errorf("decision evidence: regret=%v cur=%v opt=%v", d.Regret, d.CurrentCost, d.OptimalCost)
	}
}

func TestControllerRegretMatchesCostModel(t *testing.T) {
	l := testLattice()
	m := &recordingMigrator{}
	c, err := New(l, optimalFor(t, l, rowClass), true, 0, m.migrate, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	observeN(t, c, colClass, 1000)
	ev, _, err := c.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	w, err := c.est.Workload(c.cfg.Smoothing)
	if err != nil {
		t.Fatal(err)
	}
	cur, snaked := c.Strategy()
	wantCur := cost.OfPath(cur, snaked).ExpectedCost(w)
	opt, err := core.Optimal(w)
	if err != nil {
		t.Fatal(err)
	}
	wantOpt := cost.OfPath(opt.Path, true).ExpectedCost(w)
	if ev.CurrentCost != wantCur || ev.OptimalCost != wantOpt {
		t.Errorf("evaluation costs (%v, %v) differ from the cost model (%v, %v)",
			ev.CurrentCost, ev.OptimalCost, wantCur, wantOpt)
	}
	if want := wantCur / wantOpt; ev.Regret != want {
		t.Errorf("regret = %v, want %v", ev.Regret, want)
	}
}

func TestConfigValidation(t *testing.T) {
	l := testLattice()
	p := optimalFor(t, l, rowClass)
	mig := func(context.Context, *Decision) error { return nil }
	bad := []Config{
		{},
		{CheckInterval: time.Second, RegretThreshold: 1.0, Hysteresis: 1},
		{CheckInterval: time.Second, RegretThreshold: 1.2, Hysteresis: 0},
		{CheckInterval: time.Second, RegretThreshold: 1.2, Hysteresis: 1, Smoothing: -1},
		{CheckInterval: time.Second, RegretThreshold: 1.2, Hysteresis: 1, HalfLife: -time.Second},
		{CheckInterval: time.Second, RegretThreshold: 1.2, Hysteresis: 1, MinInterval: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := New(l, p, true, 0, mig, cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	if _, err := New(l, p, true, 0, nil, Defaults()); err == nil {
		t.Error("nil migrator should be rejected")
	}
	if _, err := New(l, p, true, 0, mig, Defaults()); err != nil {
		t.Errorf("Defaults rejected: %v", err)
	}
}

func TestControllerCostCorrection(t *testing.T) {
	m := &recordingMigrator{}
	c := newTestController(t, testConfig(), m)
	observeN(t, c, colClass, 500)

	base, _, err := c.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if base.Correction != 1 {
		t.Fatalf("no hook: correction %v, want 1", base.Correction)
	}

	// A correction of 0.5 (the pool/overlay absorbs half the analytic
	// seeks) halves the observed cost and with it the regret.
	c.CostCorrection = func() float64 { return 0.5 }
	ev, _, err := c.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if ev.Correction != 0.5 {
		t.Fatalf("correction %v, want 0.5", ev.Correction)
	}
	if want := base.CurrentCost * 0.5; ev.CurrentCost != want {
		t.Fatalf("corrected cost %v, want %v", ev.CurrentCost, want)
	}
	if ev.OptimalCost != base.OptimalCost {
		t.Fatalf("optimal cost changed under correction: %v vs %v", ev.OptimalCost, base.OptimalCost)
	}
	if want := base.Regret * 0.5; ev.Regret != want {
		t.Fatalf("corrected regret %v, want %v", ev.Regret, want)
	}

	// Degenerate hook values are ignored, not propagated.
	for _, v := range []float64{0, -3, math.NaN(), math.Inf(1)} {
		v := v
		c.CostCorrection = func() float64 { return v }
		ev, _, err := c.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if ev.Correction != 1 || ev.CurrentCost != base.CurrentCost {
			t.Fatalf("hook value %v: correction %v cost %v, want neutral", v, ev.Correction, ev.CurrentCost)
		}
	}
}
