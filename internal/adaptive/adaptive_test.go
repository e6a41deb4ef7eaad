package adaptive

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
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
		HalfLife:        0,
		Smoothing:       0.01,
		MinWeight:       1,
		RegretThreshold: 1.05,
		Hysteresis:      2,
		MinInterval:     0,
	}
}

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	l := testLattice()
	c, err := New(l, optimalFor(t, l, rowClass), true, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// reorganize is what a caller does with an evaluated decision: claim the
// slot, migrate (here: report a 16-cell copy and end with err), Finish.
func reorganize(c *Controller, d *Decision, err error) error {
	if cerr := c.claim(d); cerr != nil {
		return cerr
	}
	c.Progress(16, 16)
	c.Finish(d, err)
	return err
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
	c := newTestController(t, testConfig())

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

	if err := reorganize(c, d, nil); err != nil {
		t.Fatal(err)
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
	cfg := testConfig()
	cfg.Hysteresis = 3
	c := newTestController(t, cfg)

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
	if st := c.Status(); st.InProgress || st.Reorgs != 0 {
		t.Errorf("an oscillating workload reorganized: %+v", st)
	}
}

func TestControllerMinIntervalAndMinWeight(t *testing.T) {
	cfg := testConfig()
	cfg.Hysteresis = 1
	cfg.MinInterval = time.Hour
	cfg.MinWeight = 50
	c := newTestController(t, cfg)
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
	if err := reorganize(c, d, nil); err != nil {
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
	cfg := testConfig()
	cfg.Hysteresis = 1
	c := newTestController(t, cfg)
	observeN(t, c, colClass, 100)
	_, d, err := c.Evaluate()
	if err != nil || d == nil {
		t.Fatalf("expected a decision (err=%v)", err)
	}
	reorganize(c, d, errors.New("disk full"))
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
	cfg := testConfig()
	cfg.Hysteresis = 1
	c := newTestController(t, cfg)
	observeN(t, c, colClass, 100)
	_, d, err := c.Evaluate()
	if err != nil || d == nil {
		t.Fatalf("expected a decision (err=%v)", err)
	}
	reorganize(c, d, fmt.Errorf("maintenance stopped: %w", context.Canceled))
	st := c.Status()
	if st.LastOutcome != "canceled" || st.Generation != 0 {
		t.Errorf("cancel status = %+v", st)
	}
}

func TestControllerSerializesReorgs(t *testing.T) {
	cfg := testConfig()
	cfg.Hysteresis = 1
	c := newTestController(t, cfg)
	observeN(t, c, colClass, 100)
	d, err := c.Trigger(context.Background(), false)
	if err != nil || d == nil {
		t.Fatalf("expected a claimed decision (err=%v)", err)
	}
	if !c.Status().InProgress {
		t.Fatal("a decision from Trigger does not hold the slot")
	}
	if _, err := c.Trigger(context.Background(), true); !errors.Is(err, ErrReorgInProgress) {
		t.Fatalf("concurrent trigger error = %v", err)
	}
	c.Finish(d, nil)
	if st := c.Status(); st.Generation != 1 || st.InProgress {
		t.Errorf("status after the serialized reorg = %+v, want generation 1 with the slot free", st)
	}
	// A second Finish of the same decision changes nothing.
	c.Finish(d, errors.New("late"))
	if st := c.Status(); st.Generation != 1 || st.Reorgs != 1 || st.Failures != 0 {
		t.Errorf("status after a repeated Finish = %+v", st)
	}
}

func TestControllerForceTrigger(t *testing.T) {
	c := newTestController(t, testConfig())
	// Low regret, zero trips — but force decides on the optimum anyway.
	observeN(t, c, rowClass, 100)
	if _, err := c.Trigger(context.Background(), false); !Skipped(err) {
		t.Fatalf("unforced trigger on a happy workload: %v", err)
	}
	if c.Status().InProgress {
		t.Fatal("a declined trigger holds the slot")
	}
	d, err := c.Trigger(context.Background(), true)
	if err != nil {
		t.Fatal(err)
	}
	if d == nil || d.Generation != 1 {
		t.Fatalf("forced trigger decision = %+v", d)
	}
	if st := c.Status(); st.Generation != 0 || !st.InProgress {
		t.Errorf("forced trigger status = %+v, want generation 0 in progress until Finish", st)
	}
	c.Finish(d, nil)
	if c.Status().Generation != 1 {
		t.Errorf("Finish did not commit the forced decision")
	}
}

// TestControllerTracedTriggerRecordsDPAndMigrate: a traced policy step
// that fires records exactly one DP rerun and no migrate span, since
// Trigger never migrates; the caller's migrate span, carrying the new
// generation, and the copy beneath it join the same trace, and Finish
// reports the outcome once, timed from the claim.
func TestControllerTracedTriggerRecordsDPAndMigrate(t *testing.T) {
	cfg := testConfig()
	cfg.Hysteresis = 1
	c := newTestController(t, cfg)
	clk := time.Unix(1_000_000, 0)
	c.now = func() time.Time { return clk }
	var outcomes []string
	var durs []time.Duration
	c.OnReorg = func(outcome string, d time.Duration) {
		outcomes, durs = append(outcomes, outcome), append(durs, d)
	}
	observeN(t, c, colClass, 500)
	rec := trace.NewRecorder(trace.Config{Capacity: 1, RetainedCapacity: 1})
	ctx, tr := rec.StartForced(context.Background(), "reorg")
	d, err := c.Trigger(ctx, false)
	if err != nil || d == nil || d.Generation != 1 {
		t.Fatalf("traced trigger = %+v, %v; want a generation-1 decision", d, err)
	}
	kinds := func() map[string][]trace.Span {
		out := map[string][]trace.Span{}
		for _, sp := range tr.Spans() {
			out[sp.Kind] = append(out[sp.Kind], sp)
		}
		return out
	}
	if k := kinds(); len(k[trace.KindDP]) != 1 || len(k[trace.KindMigrate]) != 0 {
		t.Fatalf("trace after Trigger has %d dp and %d migrate spans, want 1 and 0: %+v", len(k[trace.KindDP]), len(k[trace.KindMigrate]), tr.Spans())
	}
	mctx, msp := trace.Start(ctx, trace.KindMigrate, "")
	msp.SetAttr("generation", int64(d.Generation))
	trace.StartLeaf(mctx, trace.KindCopy, "").End()
	msp.End()
	clk = clk.Add(3 * time.Second)
	c.Finish(d, nil)
	tr.Finish(nil)
	k := kinds()
	if len(k[trace.KindDP]) != 1 || len(k[trace.KindMigrate]) != 1 || len(k[trace.KindCopy]) != 1 {
		t.Fatalf("trace has %d dp, %d migrate, %d copy spans, want one each: %+v",
			len(k[trace.KindDP]), len(k[trace.KindMigrate]), len(k[trace.KindCopy]), tr.Spans())
	}
	mig := k[trace.KindMigrate][0]
	if len(mig.Attrs) != 1 || mig.Attrs[0].Key != "generation" || mig.Attrs[0].Value != 1 {
		t.Errorf("migrate span attrs = %+v, want generation 1", mig.Attrs)
	}
	if dp, cp := k[trace.KindDP][0], k[trace.KindCopy][0]; dp.Parent != 0 || mig.Parent != 0 || cp.Parent != mig.ID {
		t.Errorf("dp parent %d, migrate parent %d, copy parent %d; want the root, the root and the migrate span %d", dp.Parent, mig.Parent, cp.Parent, mig.ID)
	}
	if fmt.Sprint(outcomes) != "[success]" || durs[0] != 3*time.Second {
		t.Errorf("OnReorg saw %v after %v, want one success after 3s", outcomes, durs)
	}
}

// TestControllerRunLoop: Trigger and Finish serialize the one slot. Callers
// racing forced triggers, each finishing what it claimed, never hold the
// slot two at a time, and every claim commits exactly one generation.
func TestControllerRunLoop(t *testing.T) {
	c := newTestController(t, testConfig())
	observeN(t, c, colClass, 500)
	var reorgs atomic.Int64
	c.OnReorg = func(string, time.Duration) { reorgs.Add(1) }
	var holders, claims atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				d, err := c.Trigger(context.Background(), true)
				if errors.Is(err, ErrReorgInProgress) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				if n := holders.Add(1); n != 1 {
					t.Errorf("%d callers hold the slot at once", n)
				}
				claims.Add(1)
				holders.Add(-1)
				c.Finish(d, nil)
			}
		}()
	}
	wg.Wait()
	st := c.Status()
	if n := claims.Load(); n == 0 || st.Generation != int(n) || st.Reorgs != uint64(n) || reorgs.Load() != n || st.InProgress {
		t.Errorf("%d claims: status %+v and %d OnReorg calls, want generation, reorgs and calls equal to the claims", n, st, reorgs.Load())
	}
}

func TestControllerRegretMatchesCostModel(t *testing.T) {
	l := testLattice()
	c, err := New(l, optimalFor(t, l, rowClass), true, 0, testConfig())
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
	bad := []Config{
		{},
		{RegretThreshold: 1.0, Hysteresis: 1},
		{RegretThreshold: 1.2, Hysteresis: 0},
		{RegretThreshold: 1.2, Hysteresis: 1, Smoothing: -1},
		{RegretThreshold: 1.2, Hysteresis: 1, HalfLife: -time.Second},
		{RegretThreshold: 1.2, Hysteresis: 1, MinInterval: -time.Second},
	}
	for i, cfg := range bad {
		if _, err := New(l, p, true, 0, cfg); err == nil {
			t.Errorf("config %d should be rejected: %+v", i, cfg)
		}
	}
	if _, err := New(l, p, true, 0, Defaults()); err != nil {
		t.Errorf("Defaults rejected: %v", err)
	}
	// The smallest usable policy: a threshold above 1 and a one-evaluation
	// window; every other setting may stay zero.
	if _, err := New(l, p, true, 0, Config{RegretThreshold: 1.2, Hysteresis: 1}); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestControllerCostCorrection(t *testing.T) {
	c := newTestController(t, testConfig())
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
