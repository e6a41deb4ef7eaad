// Package adaptive closes the loop between the paper's optimizer and the
// serving layer: it learns the live query-class distribution from the query
// stream (exponentially decayed, so old traffic fades), periodically re-runs
// the Figure-4 DP against that estimate, and — when the deployed
// linearization's expected cost exceeds the new optimum's by a configurable
// regret factor, persistently enough to clear a hysteresis window — hands
// its caller a decision to re-cluster the store onto the new optimum.
//
// The controller owns the decision policy (what to track, when to act) and
// the one in-progress slot; whoever holds a decision owns the mechanism
// (copy, catalog, swap, cleanup) and reports its outcome with Finish. That
// split keeps the policy unit-testable without a disk store and lets the
// daemon run the copy inside its own maintenance tick.
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
}

// Defaults returns a conservative production-shaped policy.
func Defaults() Config {
	return Config{
		HalfLife:        15 * time.Minute,
		Smoothing:       0.5,
		MinWeight:       100,
		RegretThreshold: 1.2,
		Hysteresis:      3,
		MinInterval:     10 * time.Minute,
	}
}

func (c Config) validate() error {
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
	return nil
}

// Decision is what Trigger hands its caller when it decides to re-cluster:
// the new strategy, the evidence, and the generation number the new store
// file should carry.
type Decision struct {
	Path        *core.Path
	Snaked      bool
	Workload    *workload.Workload
	CurrentCost float64 // expected seeks/query of the deployed strategy
	OptimalCost float64 // expected seeks/query of Path
	Regret      float64 // CurrentCost / OptimalCost
	Generation  int     // generation the new store assumes on success
}

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
// Every method is safe for concurrent use.
type Controller struct {
	cfg Config
	lat *lattice.Lattice
	est *workload.DecayingEstimator

	mu         sync.Mutex
	path       *core.Path // deployed strategy
	snaked     bool
	generation int
	evals      uint64
	lastRegret float64
	trips      int       // consecutive evaluations above threshold
	lastReorg  time.Time // last attempt (success or failure): when its slot was claimed
	reorgs     uint64
	failures   uint64
	inProgress bool
	migrated   int
	totalCells int
	lastOut    string
	lastErr    string
	lastSecs   float64

	// OnEvaluate and OnReorg, when set before Trigger, observe policy
	// activity for metrics; they are called without the controller lock.
	OnEvaluate func(Evaluation)
	OnReorg    func(outcome string, d time.Duration)

	// CostCorrection, when set before Trigger, scales the deployed
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
func New(lat *lattice.Lattice, path *core.Path, snaked bool, generation int, cfg Config) (*Controller, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	est, err := workload.NewDecayingEstimator(lat, cfg.HalfLife)
	if err != nil {
		return nil, err
	}
	return &Controller{
		cfg:        cfg,
		lat:        lat,
		est:        est,
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
// Evaluate never claims the in-progress slot.
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
		}
	}
	c.mu.Unlock()
	if c.OnEvaluate != nil {
		c.OnEvaluate(ev)
	}
	return ev, d, nil
}

// Trigger runs one policy step now and, when it decides, claims the single
// in-progress slot for the decision: the caller then owns the migration and
// must report its outcome with Finish. Trigger itself never migrates. With
// force, the regret threshold, hysteresis, minimum weight, and minimum
// interval are bypassed and the current DP optimum is decided
// unconditionally (the operator's "/reorg POST" path). Returns
// ErrReorgInProgress while another decision holds the slot, and an error
// for which Skipped reports true when the policy declined.
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
		}
		c.mu.Unlock()
	}
	if err := c.claim(d); err != nil {
		return nil, err
	}
	return d, nil
}

// claim takes the single in-progress slot for d. A decision made while
// another held the slot, or one a concurrent reorganization landed under,
// is stale.
func (c *Controller) claim(d *Decision) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.inProgress || d.Generation != c.generation+1 {
		return ErrReorgInProgress
	}
	c.inProgress = true
	c.migrated, c.totalCells = 0, 0
	c.lastReorg = c.now()
	return nil
}

// Skipped reports whether a Trigger error means "policy declined" rather
// than a failure.
func Skipped(err error) bool { return errors.Is(err, errSkipped) }

// Progress records how far the claimed decision's migration has copied,
// for Status.
func (c *Controller) Progress(done, total int) {
	c.mu.Lock()
	c.migrated, c.totalCells = done, total
	c.mu.Unlock()
}

// Finish ends the reorganization d claimed by Trigger and frees the slot. A
// nil err commits the controller to d's strategy and generation; any error
// (a cancellation counts as "canceled", anything else as "failed") leaves
// it on the old generation, ready to retry after MinInterval. OnReorg then
// sees the outcome and the time since the claim. Call it exactly once per
// decision; a call without a claim is ignored.
func (c *Controller) Finish(d *Decision, err error) {
	c.mu.Lock()
	if !c.inProgress || d.Generation != c.generation+1 {
		c.mu.Unlock()
		return
	}
	dur := c.now().Sub(c.lastReorg)
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
}
