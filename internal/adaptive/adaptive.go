// Package adaptive closes the loop between the paper's optimizer and the
// serving layer: it learns the live query-class distribution from the query
// stream (exponentially decayed, so old traffic fades), periodically re-runs
// the Figure-4 DP against that estimate, and — when the deployed
// linearization's expected cost exceeds the new optimum's by a configurable
// regret factor, persistently enough to clear a hysteresis window — invokes
// a caller-supplied migrator that re-clusters the store in the background
// and hot-swaps the daemon onto the new generation.
//
// The controller owns the decision policy (what to track, when to act); the
// migrator owns the mechanism (copy, catalog, swap, cleanup). That split
// keeps the policy unit-testable without a disk store and lets the daemon
// implement the swap against its own catalog and metrics.
package adaptive

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/lattice"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ErrReorgInProgress is returned by Trigger when a reorganization is
// already running; reorganizations are strictly serialized.
var ErrReorgInProgress = errors.New("adaptive: reorganization already in progress")

// errSkipped distinguishes "evaluated, decided not to act" from failures.
var errSkipped = errors.New("adaptive: reorganization not warranted")

// Config tunes the controller's decision policy. The zero value is not
// usable; use Defaults() as a base.
type Config struct {
	// CheckInterval is how often Run re-evaluates the workload.
	CheckInterval time.Duration
	// HalfLife is the decay half-life of the workload estimator; 0
	// disables time decay (observations never fade).
	HalfLife time.Duration
	// Smoothing is the Laplace pseudo-count per class applied when the
	// tracked stream is turned into a workload, so unseen classes keep
	// nonzero mass and the DP does not overfit short streams.
	Smoothing float64
	// MinWeight is the minimum decayed observation mass required before
	// an evaluation may trigger a reorganization: after an idle stretch
	// the estimator carries little live evidence and should not act.
	MinWeight float64
	// RegretThreshold triggers reorganization when the deployed
	// strategy's expected cost exceeds the optimum's by this factor
	// (e.g. 1.2 = 20% more seeks than necessary). Must be > 1.
	RegretThreshold float64
	// Hysteresis is the number of consecutive evaluations that must
	// exceed RegretThreshold before acting, so a transient spike or an
	// oscillating workload does not thrash the store.
	Hysteresis int
	// MinInterval is the minimum time between reorganization attempts.
	MinInterval time.Duration
	// Pacing bounds the incremental migrator the decision is handed to.
	Pacing Pacing
}

// Pacing is the controller's I/O budget for a reorganization, in the
// migrator's own terms: copying in region-scored ticks of the bytes the
// Pace hook grants, a re-cluster never rewrites the whole file in one burst
// and concurrent queries keep their latency. The controller sets Progress
// itself, on each decision.
type Pacing = storage.MigrateOptions

// Defaults returns a conservative production-shaped policy.
func Defaults() Config {
	return Config{
		CheckInterval:   30 * time.Second,
		HalfLife:        15 * time.Minute,
		Smoothing:       0.5,
		MinWeight:       100,
		RegretThreshold: 1.2,
		Hysteresis:      3,
		MinInterval:     10 * time.Minute,
		Pacing: Pacing{
			RegionCells: 64,
			Pace:        sleepPace(10*time.Millisecond, 16<<10),
		},
	}
}

// sleepPace is a migration pace that sleeps d before each tick and grants
// it bytes: 16 KiB is about 256 cells of 64 bytes.
func sleepPace(d time.Duration, bytes int64) func(context.Context, int64, bool) (int64, error) {
	return func(ctx context.Context, _ int64, last bool) (int64, error) {
		if last {
			return 0, nil
		}
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-t.C:
			return bytes, nil
		}
	}
}

func (c Config) validate() error {
	if c.CheckInterval <= 0 {
		return fmt.Errorf("adaptive: CheckInterval %v must be positive", c.CheckInterval)
	}
	if c.HalfLife < 0 {
		return fmt.Errorf("adaptive: negative HalfLife %v", c.HalfLife)
	}
	if c.Smoothing < 0 {
		return fmt.Errorf("adaptive: negative Smoothing %v", c.Smoothing)
	}
	if c.RegretThreshold <= 1 {
		return fmt.Errorf("adaptive: RegretThreshold %v must exceed 1", c.RegretThreshold)
	}
	if c.Hysteresis < 1 {
		return fmt.Errorf("adaptive: Hysteresis %d must be at least 1", c.Hysteresis)
	}
	if c.MinInterval < 0 {
		return fmt.Errorf("adaptive: negative MinInterval %v", c.MinInterval)
	}
	if c.Pacing.RegionCells < 0 {
		return fmt.Errorf("adaptive: negative pacing: %d cells a region", c.Pacing.RegionCells)
	}
	return nil
}

// Decision is what the controller hands the migrator when it decides to
// re-cluster: the new strategy, the evidence, and the generation number the
// new store file should carry. Migrate is the configured pacing plus the
// progress hook behind Status, ready to hand to storage.MigrateCtx.
type Decision struct {
	Path        *core.Path
	Snaked      bool
	Workload    *workload.Workload
	CurrentCost float64 // expected seeks/query of the deployed strategy
	OptimalCost float64 // expected seeks/query of Path
	Regret      float64 // CurrentCost / OptimalCost
	Generation  int     // generation the new store assumes on success
	Migrate     storage.MigrateOptions
}

// Migrator performs the mechanism of a reorganization: build the new
// generation, persist the catalog, swap the serving store, clean up. A nil
// error commits the controller to the decision's strategy and generation;
// any error (including ctx cancellation) leaves the controller on the old
// generation, ready to retry after MinInterval.
type Migrator func(ctx context.Context, d *Decision) error

// Evaluation is one regret measurement, surfaced by Status and the
// OnEvaluate hook.
type Evaluation struct {
	Regret      float64
	CurrentCost float64 // after Correction, when a CostCorrection hook is set
	OptimalCost float64
	Correction  float64 // multiplier applied to CurrentCost (1 when no hook)
	Weight      float64 // decayed mass backing the estimate
	Eligible    bool    // enough mass and regret above threshold
}

// Status is the externally visible controller state, shaped for the
// daemon's /reorg endpoint.
type Status struct {
	Generation    int     `json:"generation"`
	Strategy      string  `json:"strategy"`
	Snaked        bool    `json:"snaked"`
	Observations  uint64  `json:"observations"`
	Weight        float64 `json:"weight"`
	Evaluations   uint64  `json:"evaluations"`
	LastRegret    float64 `json:"lastRegret"`
	Trips         int     `json:"trips"`
	Reorgs        uint64  `json:"reorgs"`
	Failures      uint64  `json:"failures"`
	InProgress    bool    `json:"inProgress"`
	MigratedCells int     `json:"migratedCells"`
	TotalCells    int     `json:"totalCells"`
	LastOutcome   string  `json:"lastOutcome,omitempty"` // success | failed | canceled
	LastError     string  `json:"lastError,omitempty"`
	LastReorgSecs float64 `json:"lastReorgSeconds,omitempty"`
}

// Controller tracks the live workload and decides when to reorganize.
// Observe is safe to call from every serving goroutine; Run, Trigger, and
// Status may be used concurrently with it.
type Controller struct {
	cfg     Config
	lat     *lattice.Lattice
	est     *workload.DecayingEstimator
	migrate Migrator

	mu         sync.Mutex
	path       *core.Path // deployed strategy
	snaked     bool
	generation int
	evals      uint64
	lastRegret float64
	trips      int       // consecutive evaluations above threshold
	lastReorg  time.Time // last attempt (success or failure)
	reorgs     uint64
	failures   uint64
	inProgress bool
	migrated   int
	totalCells int
	lastOut    string
	lastErr    string
	lastSecs   float64

	// OnEvaluate and OnReorg, when set before Run/Trigger, observe policy
	// activity for metrics; they are called without the controller lock.
	OnEvaluate func(Evaluation)
	OnReorg    func(outcome string, d time.Duration)

	// CostCorrection, when set before Run/Trigger, scales the deployed
	// strategy's analytic cost by a live observed/predicted seek ratio
	// (the obsevent calibration watch) before regret is computed. The
	// optimum stays analytic: regret then compares what the store is
	// measured to pay against what the DP says it could pay, so a buffer
	// pool or overlay that absorbs seeks weakens the case for migrating.
	// Returns <= 0, NaN, or Inf are ignored. Called without the lock.
	CostCorrection func() float64

	now func() time.Time // injectable clock for tests
}

// New returns a controller deployed on the given strategy and generation.
// The migrator is invoked from Run's goroutine (or Trigger's caller) when
// the policy fires.
func New(lat *lattice.Lattice, path *core.Path, snaked bool, generation int, migrate Migrator, cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if migrate == nil {
		return nil, fmt.Errorf("adaptive: nil migrator")
	}
	est, err := workload.NewDecayingEstimator(lat, cfg.HalfLife)
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:        cfg,
		lat:        lat,
		est:        est,
		migrate:    migrate,
		path:       path,
		snaked:     snaked,
		generation: generation,
		now:        time.Now,
	}, nil
}

// Observe records one served query of the given lattice class.
func (c *Controller) Observe(class lattice.Point) error {
	return c.est.Observe(class)
}

// Generation returns the currently deployed strategy generation.
func (c *Controller) Generation() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.generation
}

// Strategy returns the currently deployed path and snaking flag.
func (c *Controller) Strategy() (*core.Path, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.path, c.snaked
}

// Status snapshots the controller for the /reorg endpoint.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Status{
		Generation:    c.generation,
		Strategy:      c.path.String(),
		Snaked:        c.snaked,
		Observations:  c.est.Total(),
		Weight:        c.est.Weight(),
		Evaluations:   c.evals,
		LastRegret:    c.lastRegret,
		Trips:         c.trips,
		Reorgs:        c.reorgs,
		Failures:      c.failures,
		InProgress:    c.inProgress,
		MigratedCells: c.migrated,
		TotalCells:    c.totalCells,
		LastOutcome:   c.lastOut,
		LastError:     c.lastErr,
		LastReorgSecs: c.lastSecs,
	}
}

// Evaluate runs one policy step: estimate the workload, re-run the DP,
// compute regret, and update the hysteresis counter. It returns the
// measurement and, when the policy says to act, a non-nil Decision.
// Evaluate itself never migrates.
func (c *Controller) Evaluate() (Evaluation, *Decision, error) {
	return c.evaluate(context.Background())
}

// evaluate is Evaluate under a context, so a traced reorg tick records the
// DP rerun as its own span (with the measured regret attached in milli
// units — span attributes are integers).
func (c *Controller) evaluate(ctx context.Context) (_ Evaluation, _ *Decision, retErr error) {
	sp := trace.StartLeaf(ctx, trace.KindDP, "")
	if sp.OK() {
		defer func() {
			sp.SetError(retErr)
			sp.End()
		}()
	}
	weight := c.est.Weight()
	w, err := c.est.Workload(c.cfg.Smoothing)
	if err != nil {
		return Evaluation{Weight: weight}, nil, err
	}
	opt, err := core.Optimal(w)
	if err != nil {
		return Evaluation{Weight: weight}, nil, err
	}
	corr := 1.0
	if c.CostCorrection != nil {
		if v := c.CostCorrection(); v > 0 && !math.IsNaN(v) && !math.IsInf(v, 0) {
			corr = v
		}
	}
	c.mu.Lock()
	cur := cost.OfPath(c.path, c.snaked).ExpectedCost(w) * corr
	optCost := cost.OfPath(opt.Path, true).ExpectedCost(w)
	ev := Evaluation{
		CurrentCost: cur,
		OptimalCost: optCost,
		Correction:  corr,
		Weight:      weight,
	}
	if optCost > 0 {
		ev.Regret = cur / optCost
	} else {
		ev.Regret = 1
	}
	sp.SetAttr("regret_milli", int64(ev.Regret*1000))
	c.evals++
	c.lastRegret = ev.Regret
	if ev.Regret > c.cfg.RegretThreshold && weight >= c.cfg.MinWeight {
		c.trips++
		ev.Eligible = true
	} else {
		c.trips = 0
	}
	act := ev.Eligible && c.trips >= c.cfg.Hysteresis &&
		(c.lastReorg.IsZero() || c.now().Sub(c.lastReorg) >= c.cfg.MinInterval) &&
		!c.inProgress
	var d *Decision
	if act {
		d = &Decision{
			Path:        opt.Path,
			Snaked:      true,
			Workload:    w,
			CurrentCost: cur,
			OptimalCost: optCost,
			Regret:      ev.Regret,
			Generation:  c.generation + 1,
			Migrate:     c.cfg.Pacing,
		}
	}
	c.mu.Unlock()
	if c.OnEvaluate != nil {
		c.OnEvaluate(ev)
	}
	return ev, d, nil
}

// Run evaluates the policy every CheckInterval and reorganizes when it
// fires, until ctx is cancelled. Errors from individual evaluations or
// migrations are absorbed into Status/metrics (the loop keeps serving the
// policy); only ctx ends the loop.
func (c *Controller) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.CheckInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			_, d, err := c.evaluate(ctx)
			if err != nil || d == nil {
				continue
			}
			c.reorganize(ctx, d) // outcome recorded in Status
		}
	}
}

// Trigger forces one policy step now. With force, the regret threshold,
// hysteresis, minimum weight, and minimum interval are bypassed and the
// current DP optimum is deployed unconditionally (the operator's "/reorg
// POST" path). Returns the decision it acted on, or nil when the policy
// declined (never nil alongside a nil error when force is set).
func (c *Controller) Trigger(ctx context.Context, force bool) (*Decision, error) {
	ev, d, err := c.evaluate(ctx)
	if err != nil {
		return nil, err
	}
	if d == nil {
		if !force {
			c.mu.Lock()
			trips := c.trips
			c.mu.Unlock()
			return nil, fmt.Errorf("%w: regret %.3f, threshold %.3f, trips %d/%d",
				errSkipped, ev.Regret, c.cfg.RegretThreshold, trips, c.cfg.Hysteresis)
		}
		sp := trace.StartLeaf(ctx, trace.KindDP, "forced")
		w, err := c.est.Workload(c.cfg.Smoothing)
		if err != nil {
			sp.SetError(err)
			sp.End()
			return nil, err
		}
		opt, err := core.Optimal(w)
		if err != nil {
			sp.SetError(err)
			sp.End()
			return nil, err
		}
		sp.End()
		c.mu.Lock()
		d = &Decision{
			Path:        opt.Path,
			Snaked:      true,
			Workload:    w,
			CurrentCost: ev.CurrentCost,
			OptimalCost: ev.OptimalCost,
			Regret:      ev.Regret,
			Generation:  c.generation + 1,
			Migrate:     c.cfg.Pacing,
		}
		c.mu.Unlock()
	}
	if err := c.reorganize(ctx, d); err != nil {
		return d, err
	}
	return d, nil
}

// Skipped reports whether a Trigger error means "policy declined" rather
// than a failed migration.
func Skipped(err error) bool { return errors.Is(err, errSkipped) }

// reorganize claims the single in-progress slot, runs the migrator, and
// commits or rolls back the controller state.
func (c *Controller) reorganize(ctx context.Context, d *Decision) error {
	c.mu.Lock()
	if c.inProgress {
		c.mu.Unlock()
		return ErrReorgInProgress
	}
	if d.Generation != c.generation+1 {
		// A concurrent reorg landed between Evaluate and here.
		c.mu.Unlock()
		return ErrReorgInProgress
	}
	c.inProgress = true
	c.migrated, c.totalCells = 0, 0
	c.lastReorg = c.now()
	c.mu.Unlock()

	d.Migrate.Progress = func(done, total int) {
		c.mu.Lock()
		c.migrated, c.totalCells = done, total
		c.mu.Unlock()
	}
	start := c.now()
	mctx, msp := trace.Start(ctx, trace.KindMigrate, "")
	msp.SetAttr("generation", int64(d.Generation))
	err := c.migrate(mctx, d)
	msp.SetError(err)
	msp.End()
	dur := c.now().Sub(start)

	c.mu.Lock()
	c.inProgress = false
	c.lastSecs = dur.Seconds()
	outcome := "success"
	if err != nil {
		outcome = "failed"
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			outcome = "canceled"
		}
		c.failures++
		c.lastErr = err.Error()
	} else {
		c.reorgs++
		c.lastErr = ""
		c.path = d.Path
		c.snaked = d.Snaked
		c.generation = d.Generation
		c.trips = 0
		// Halve the estimator so the post-reorg stream re-earns its
		// influence: a full Reset would leave the policy blind, while
		// keeping full mass would let the pre-reorg epoch linger.
		c.est.Decay(0.5)
	}
	c.lastOut = outcome
	c.mu.Unlock()
	if c.OnReorg != nil {
		c.OnReorg(outcome, dur)
	}
	return err
}
