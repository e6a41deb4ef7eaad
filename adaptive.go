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

// Migration is a re-clustering copy in progress; see
// Strategy.StartMigration.
type Migration = storage.Migration

// StartMigration begins physically re-clustering a file store onto this
// strategy's order, creating the new store at newPath: each Step copies the
// worst-clustered regions of regionCells target positions first, within
// its byte budget, with the upserts pending in the old store's delta
// overlay riding along; Finish flushes and returns the new store. Any Step
// or Finish error, or Abort, deletes the partial output.
func (st *Strategy) StartMigration(ctx context.Context, old *FileStore, newPath string, poolFrames, regionCells int) (*Migration, error) {
	o, err := st.Materialize()
	if err != nil {
		return nil, err
	}
	return storage.StartMigration(ctx, old, newPath, o, poolFrames, regionCells)
}

// MigrateCtx is a whole migration in one call: StartMigration, one
// unbounded Step and Finish. On any failure, cancellation included, the
// partial output is deleted.
func (st *Strategy) MigrateCtx(ctx context.Context, old *FileStore, newPath string, poolFrames int) (*FileStore, error) {
	o, err := st.Materialize()
	if err != nil {
		return nil, err
	}
	return storage.MigrateCtx(ctx, old, newPath, o, poolFrames)
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
// rather than a failure.
func ReorgSkipped(err error) bool { return adaptive.Skipped(err) }

// ReorgDecision is what Trigger hands its caller when the policy fires: the
// new strategy, the evidence behind it, and the generation the new store
// assumes on success. The caller migrates (Strategy.StartMigration or
// MigrateCtx), swaps, and reports the outcome with Reorganizer.Finish.
type ReorgDecision struct {
	Strategy    *Strategy
	Workload    *Workload
	CurrentCost float64
	OptimalCost float64
	Regret      float64
	Generation  int
	d           *adaptive.Decision
}

// Reorganizer closes the loop between the optimizer and a serving store:
// it learns the live class distribution (decayed), recomputes the optimal
// strategy, and decides to re-cluster when the deployed strategy's expected
// cost exceeds the optimum's by the configured regret factor, sustained
// across the hysteresis window. One decision runs at a time. Every method
// is safe for concurrent use.
type Reorganizer struct {
	schema *Schema
	c      *adaptive.Controller
}

// NewReorganizer returns a reorganizer deployed on the given strategy and
// generation.
func NewReorganizer(st *Strategy, generation int, cfg ReorgConfig) (*Reorganizer, error) {
	c, err := adaptive.New(st.schema.lat, st.Path, st.Snaked, generation, cfg)
	if err != nil {
		return nil, err
	}
	return &Reorganizer{schema: st.schema, c: c}, nil
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
// regret gauge). Install hooks before Trigger.
func (r *Reorganizer) OnEvaluate(fn func(ReorgEvaluation)) { r.c.OnEvaluate = fn }

// OnReorg installs a hook observing every reorganization outcome
// ("success", "failed", or "canceled") and its duration from the decision,
// called by Finish.
func (r *Reorganizer) OnReorg(fn func(outcome string, d time.Duration)) { r.c.OnReorg = fn }

// SetCostCorrection installs a hook that scales the deployed strategy's
// analytic cost by a live observed/predicted ratio before regret is
// computed — typically Calibration.SeekCorrection, so a buffer pool or
// delta overlay that absorbs predicted seeks weakens the case for
// migrating. Returns <= 0, NaN, or Inf are ignored. Install before
// Trigger.
func (r *Reorganizer) SetCostCorrection(fn func() float64) { r.c.CostCorrection = fn }

// Trigger runs one policy step now and, when the policy fires, claims the
// one in-progress slot and returns the decision: the caller migrates and
// must report the outcome with Finish. With force the thresholds are
// bypassed and the current optimum decided unconditionally. While another
// decision holds the slot it returns ErrReorgInProgress; ReorgSkipped
// reports whether an error means the policy merely declined.
func (r *Reorganizer) Trigger(ctx context.Context, force bool) (*ReorgDecision, error) {
	d, err := r.c.Trigger(ctx, force)
	if err != nil {
		return nil, err
	}
	return &ReorgDecision{
		Strategy:    &Strategy{schema: r.schema, Path: d.Path, Snaked: d.Snaked},
		Workload:    &Workload{schema: r.schema, w: d.Workload},
		CurrentCost: d.CurrentCost,
		OptimalCost: d.OptimalCost,
		Regret:      d.Regret,
		Generation:  d.Generation,
		d:           d,
	}, nil
}

// Progress records how far the running decision's migration has copied,
// for Status.
func (r *Reorganizer) Progress(done, total int) { r.c.Progress(done, total) }

// Finish ends the decision Trigger returned: a nil err commits the
// reorganizer to its strategy and generation, any error rolls back to the
// old one ("canceled" when err is a cancellation, else "failed"). Call it
// exactly once per decision.
func (r *Reorganizer) Finish(d *ReorgDecision, err error) { r.c.Finish(d.d, err) }
