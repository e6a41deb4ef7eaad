package snakes

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adaptive"
	"repro/internal/storage"
	"repro/internal/workload"
)

// DecayingEstimator is an Estimator whose observations lose half their
// weight every half-life, so the estimate tracks the live workload instead
// of all history: the input the adaptive reorganizer feeds the optimizer.
// Safe for concurrent use.
type DecayingEstimator struct {
	schema *Schema
	e      *workload.DecayingEstimator
}

// NewDecayingEstimator returns an empty decayed estimator for the schema;
// halfLife = 0 disables time decay (use Decay for explicit epochs).
func (s *Schema) NewDecayingEstimator(halfLife time.Duration) (*DecayingEstimator, error) {
	e, err := workload.NewDecayingEstimator(s.lat, halfLife)
	if err != nil {
		return nil, err
	}
	return &DecayingEstimator{schema: s, e: e}, nil
}

// Observe records one query of the given class at the current time.
func (e *DecayingEstimator) Observe(c Class) error { return e.e.Observe(c) }

// Decay applies one explicit decay step with factor in (0, 1].
func (e *DecayingEstimator) Decay(factor float64) error { return e.e.Decay(factor) }

// Total returns the raw (undecayed) observation count.
func (e *DecayingEstimator) Total() uint64 { return e.e.Total() }

// Weight returns the decayed observation mass — the effective sample size.
func (e *DecayingEstimator) Weight() float64 { return e.e.Weight() }

// Workload returns the decayed estimate with additive smoothing.
func (e *DecayingEstimator) Workload(smoothing float64) (*Workload, error) {
	w, err := e.e.Workload(smoothing)
	if err != nil {
		return nil, err
	}
	return &Workload{schema: e.schema, w: w}, nil
}

// Drifted reports whether the decayed distribution has moved more than
// threshold (total-variation) from the baseline.
func (e *DecayingEstimator) Drifted(baseline *Workload, smoothing, threshold float64) (bool, float64, error) {
	return e.e.Drifted(baseline.w, smoothing, threshold)
}

// ClassOfRegion returns the query class of a region: per dimension, the
// lowest hierarchy level whose node blocks cover the range in one piece.
// Node-aligned regions (the paper's grid queries) map back to exactly the
// class they came from; unaligned ranges are attributed to the smallest
// enclosing node. This is how the serve path turns an incoming region into
// the class it feeds the workload tracker.
func (s *Schema) ClassOfRegion(r Region) (Class, error) {
	dims := s.schema.Dims
	if len(r) != len(dims) {
		return nil, fmt.Errorf("snakes: region has %d dimensions, schema has %d", len(r), len(dims))
	}
	c := make(Class, len(dims))
	for d, rng := range r {
		leaves := dims[d].Leaves()
		if rng.Lo < 0 || rng.Hi > leaves || rng.Lo >= rng.Hi {
			return nil, fmt.Errorf("snakes: dimension %d range [%d,%d) outside [0,%d)", d, rng.Lo, rng.Hi, leaves)
		}
		lv := 0
		for lv < dims[d].Levels() {
			bs := dims[d].BlockSize(lv)
			if rng.Lo/bs == (rng.Hi-1)/bs {
				break
			}
			lv++
		}
		c[d] = lv
	}
	return c, nil
}

// MigrateOptions paces a migration; the zero value copies the whole file
// in one unpaced tick. See Strategy.MigrateCtx.
type MigrateOptions = storage.MigrateOptions

// MigrateCtx physically re-clusters a file store onto this strategy's
// order, writing the new store at newPath: the worst-clustered regions of
// the target order first, in ticks paced by opt, with the upserts pending
// in the old store's delta overlay riding along. On any failure (including
// cancellation, honored between cells) the partial output is deleted.
// Returns the new store, flushed and ready to query, and the tick count.
func (st *Strategy) MigrateCtx(ctx context.Context, old *FileStore, newPath string, poolFrames int, opt MigrateOptions) (*FileStore, int, error) {
	o, err := st.Materialize()
	if err != nil {
		return nil, 0, err
	}
	return storage.MigrateCtx(ctx, old, newPath, o, poolFrames, opt)
}

// ReorgConfig tunes the adaptive reorganizer's decision policy; see
// DefaultReorgConfig for a production-shaped baseline.
type ReorgConfig = adaptive.Config

// DefaultReorgConfig returns the conservative default policy.
func DefaultReorgConfig() ReorgConfig { return adaptive.Defaults() }

// ReorgStatus is the reorganizer's externally visible state, shaped for a
// status endpoint.
type ReorgStatus = adaptive.Status

// ReorgEvaluation is one regret measurement, delivered to OnEvaluate.
type ReorgEvaluation = adaptive.Evaluation

// ErrReorgInProgress is returned by Trigger while a reorganization is
// already running; reorganizations are strictly serialized.
var ErrReorgInProgress = adaptive.ErrReorgInProgress

// ReorgSkipped reports whether a Trigger error means the policy declined
// (regret under threshold, hysteresis window open, or too little evidence)
// rather than a migration failure.
func ReorgSkipped(err error) bool { return adaptive.Skipped(err) }

// ReorgDecision is what the reorganizer hands the migrator when the policy
// fires: the new strategy, the evidence behind it, and the generation the
// new store assumes on success. Migrate is the policy's pacing plus the
// progress hook behind status reporting, ready to hand to
// Strategy.MigrateCtx.
type ReorgDecision struct {
	Strategy    *Strategy
	Workload    *Workload
	CurrentCost float64
	OptimalCost float64
	Regret      float64
	Generation  int
	Migrate     MigrateOptions
}

func newReorgDecision(schema *Schema, d *adaptive.Decision) *ReorgDecision {
	return &ReorgDecision{
		Strategy:    &Strategy{schema: schema, Path: d.Path, Snaked: d.Snaked},
		Workload:    &Workload{schema: schema, w: d.Workload},
		CurrentCost: d.CurrentCost,
		OptimalCost: d.OptimalCost,
		Regret:      d.Regret,
		Generation:  d.Generation,
		Migrate:     d.Migrate,
	}
}

// ReorgMigrator executes a reorganization decision: build the new
// generation (typically Strategy.MigrateCtx), persist metadata, swap the
// serving store, clean up. A nil error commits the reorganizer to the
// decision; any error leaves it on the old generation.
type ReorgMigrator func(ctx context.Context, d *ReorgDecision) error

// Reorganizer closes the loop between the optimizer and a serving store:
// it learns the live class distribution (decayed), recomputes the optimal
// strategy, and invokes the migrator when the deployed strategy's expected
// cost exceeds the optimum's by the configured regret factor, sustained
// across the hysteresis window. Observe is safe from every serving
// goroutine; Run, Trigger, and Status may be used concurrently with it.
type Reorganizer struct {
	schema *Schema
	c      *adaptive.Controller
}

// NewReorganizer returns a reorganizer deployed on the given strategy and
// generation.
func NewReorganizer(st *Strategy, generation int, migrate ReorgMigrator, cfg ReorgConfig) (*Reorganizer, error) {
	if migrate == nil {
		return nil, fmt.Errorf("snakes: nil reorg migrator")
	}
	r := &Reorganizer{schema: st.schema}
	inner := func(ctx context.Context, d *adaptive.Decision) error {
		return migrate(ctx, newReorgDecision(st.schema, d))
	}
	c, err := adaptive.New(st.schema.lat, st.Path, st.Snaked, generation, inner, cfg)
	if err != nil {
		return nil, err
	}
	r.c = c
	return r, nil
}

// Observe records one served query of the given class.
func (r *Reorganizer) Observe(c Class) error { return r.c.Observe(c) }

// ObserveRegion attributes a served region to its class and records it.
func (r *Reorganizer) ObserveRegion(reg Region) error {
	c, err := r.schema.ClassOfRegion(reg)
	if err != nil {
		return err
	}
	return r.c.Observe(c)
}

// Generation returns the currently deployed strategy generation.
func (r *Reorganizer) Generation() int { return r.c.Generation() }

// Strategy returns the currently deployed strategy.
func (r *Reorganizer) Strategy() *Strategy {
	p, snaked := r.c.Strategy()
	return &Strategy{schema: r.schema, Path: p, Snaked: snaked}
}

// Status snapshots the reorganizer's state.
func (r *Reorganizer) Status() ReorgStatus { return r.c.Status() }

// OnEvaluate installs a hook observing every policy evaluation (e.g. a
// regret gauge). Install hooks before Run or Trigger.
func (r *Reorganizer) OnEvaluate(fn func(ReorgEvaluation)) { r.c.OnEvaluate = fn }

// OnReorg installs a hook observing every reorganization outcome
// ("success", "failed", or "canceled") and its duration.
func (r *Reorganizer) OnReorg(fn func(outcome string, d time.Duration)) { r.c.OnReorg = fn }

// SetCostCorrection installs a hook that scales the deployed strategy's
// analytic cost by a live observed/predicted ratio before regret is
// computed — typically Calibration.SeekCorrection, so a buffer pool or
// delta overlay that absorbs predicted seeks weakens the case for
// migrating. Returns <= 0, NaN, or Inf are ignored. Install before Run
// or Trigger.
func (r *Reorganizer) SetCostCorrection(fn func() float64) { r.c.CostCorrection = fn }

// Run evaluates the policy every CheckInterval until ctx ends,
// reorganizing when it fires; evaluation and migration errors are absorbed
// into Status (the loop keeps running).
func (r *Reorganizer) Run(ctx context.Context) { r.c.Run(ctx) }

// Trigger forces one policy step now; with force the thresholds are
// bypassed and the current optimum deployed unconditionally. Returns the
// decision acted on, or an error for which ReorgSkipped reports whether
// the policy merely declined.
func (r *Reorganizer) Trigger(ctx context.Context, force bool) (*ReorgDecision, error) {
	d, err := r.c.Trigger(ctx, force)
	if d == nil {
		return nil, err
	}
	return newReorgDecision(r.schema, d), err
}
