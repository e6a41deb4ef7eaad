package snakes

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/hierarchy"
	"repro/internal/lattice"
	"repro/internal/linear"
	"repro/internal/storage"
	"repro/internal/workload"
)

// Dimension describes one dimension of a star schema by its bottom-up
// per-level fanouts; see Dim.
type Dimension = hierarchy.Dimension

// Dim builds a dimension named name whose hierarchy has the given fanouts,
// listed from the level just above the leaves upward. Dim("time", 30, 12, 7)
// is day → month (30 days each) → year (12 months) → all (7 years).
func Dim(name string, fanouts ...int) Dimension {
	return Dimension{Name: name, Fanouts: fanouts}
}

// Tree re-exports the explicit hierarchy tree for unbalanced dimensions;
// build one with snakes.Branch/snakes.Leaf, Balance it, and summarize it
// into a Dimension with its Dimension method (Section 4.1).
type Tree = hierarchy.Tree

// Branch and Leaf build explicit hierarchy trees.
var (
	Branch = hierarchy.Branch
	Leaf   = hierarchy.Leaf
)

// NewTree wraps an explicit hierarchy tree.
func NewTree(name string, root *hierarchy.Node) (*Tree, error) {
	return hierarchy.NewTree(name, root)
}

// Schema is a star schema together with its query-class lattice. Schemas
// built with SchemaFromTrees additionally carry label indexes that let
// queries be phrased against hierarchy node labels.
type Schema struct {
	schema *hierarchy.Schema
	lat    *lattice.Lattice
	idx    []*hierarchy.Index
}

// NewSchema builds a schema from dimensions; it panics on structurally
// invalid input (use BuildSchema for error returns).
func NewSchema(dims ...Dimension) *Schema {
	s, err := BuildSchema(dims...)
	if err != nil {
		panic(err)
	}
	return s
}

// BuildSchema builds a schema from dimensions.
func BuildSchema(dims ...Dimension) (*Schema, error) {
	hs, err := hierarchy.NewSchema(dims...)
	if err != nil {
		return nil, err
	}
	return &Schema{schema: hs, lat: lattice.New(hs)}, nil
}

// NumCells returns the number of grid cells of the fact table.
func (s *Schema) NumCells() int { return s.schema.NumCells() }

// NumClasses returns the number of query classes (the lattice size).
func (s *Schema) NumClasses() int { return s.lat.Size() }

// Class is a query class: one hierarchy level per dimension, leaves = 0.
type Class = lattice.Point

// Classes lists every query class of the schema in a fixed order.
func (s *Schema) Classes() []Class {
	out := make([]Class, 0, s.lat.Size())
	s.lat.Points(func(p lattice.Point) { out = append(out, p.Clone()) })
	return out
}

// Workload is a probability distribution over the schema's query classes.
// Like Schema and Strategy it is immutable-after-build: construct and
// populate it (Set/Normalize) on one goroutine, then share it freely —
// concurrent readers (Prob, ExpectedCost, Optimize) need no locking as
// long as no one mutates it anymore.
type Workload struct {
	schema *Schema
	w      *workload.Workload
}

// NewWorkload returns an empty workload; populate with Set and call
// Normalize or ensure the probabilities sum to one.
func (s *Schema) NewWorkload() *Workload {
	return &Workload{schema: s, w: workload.New(s.lat)}
}

// UniformWorkload makes every query class equally likely.
func (s *Schema) UniformWorkload() *Workload {
	return &Workload{schema: s, w: workload.Uniform(s.lat)}
}

// ClassWorkload distributes probability uniformly over the given classes.
func (s *Schema) ClassWorkload(classes ...Class) *Workload {
	return &Workload{schema: s, w: workload.UniformOver(s.lat, classes...)}
}

// Set assigns weight to a class (weights need not be normalized if you call
// Normalize afterwards).
func (w *Workload) Set(c Class, p float64) { w.w.Set(c, p) }

// Prob returns the probability of a class.
func (w *Workload) Prob(c Class) float64 { return w.w.Prob(c) }

// Normalize scales the workload to total probability one.
func (w *Workload) Normalize() error { return w.w.Normalize() }

// Validate checks that the workload is a probability distribution.
func (w *Workload) Validate() error { return w.w.Validate() }

// Estimator accumulates an observed query stream into a workload estimate,
// the way the paper proposes obtaining stable workloads: class frequencies
// converge quickly because the number of classes is small. Safe for
// concurrent use.
type Estimator struct {
	schema *Schema
	e      *workload.Estimator
}

// NewEstimator returns an empty estimator for the schema.
func (s *Schema) NewEstimator() *Estimator {
	return &Estimator{schema: s, e: workload.NewEstimator(s.lat)}
}

// Observe records one query of the given class.
func (e *Estimator) Observe(c Class) error { return e.e.Observe(c) }

// Total returns the number of observations.
func (e *Estimator) Total() uint64 { return e.e.Total() }

// Workload returns the estimated distribution with additive smoothing (see
// internal/workload.Estimator).
func (e *Estimator) Workload(smoothing float64) (*Workload, error) {
	w, err := e.e.Workload(smoothing)
	if err != nil {
		return nil, err
	}
	return &Workload{schema: e.schema, w: w}, nil
}

// Strategy is a clustering strategy: a monotone lattice path, optionally
// snaked. The zero value is not useful; obtain strategies from Optimize,
// RowMajor or PathStrategy. A Strategy is immutable once built (WithSnaking
// returns a copy) and safe to share across goroutines, as is the Schema it
// came from.
type Strategy struct {
	schema *Schema
	Path   *core.Path
	Snaked bool
}

// Optimize returns the snaked optimal lattice path for the workload — the
// paper's headline strategy, within a factor of 2 of the global optimum
// (Theorems 2 and 3) and computed in time linear in the lattice size.
func Optimize(w *Workload) (*Strategy, error) {
	res, err := core.Optimal(w.w)
	if err != nil {
		return nil, err
	}
	return &Strategy{schema: w.schema, Path: res.Path, Snaked: true}, nil
}

// OptimizeUnsnaked returns the optimal lattice path without snaking, for
// comparisons.
func OptimizeUnsnaked(w *Workload) (*Strategy, error) {
	res, err := core.Optimal(w.w)
	if err != nil {
		return nil, err
	}
	return &Strategy{schema: w.schema, Path: res.Path, Snaked: false}, nil
}

// PathStrategy builds a strategy from an explicit step sequence: steps[i]
// names the dimension of the i-th loop, innermost first.
func (s *Schema) PathStrategy(steps []int, snaked bool) (*Strategy, error) {
	p, err := core.NewPath(s.lat, steps)
	if err != nil {
		return nil, err
	}
	return &Strategy{schema: s, Path: p, Snaked: snaked}, nil
}

// RowMajor builds the row-major strategy with the given outer-to-inner
// dimension nesting.
func (s *Schema) RowMajor(dims ...int) (*Strategy, error) {
	p, err := core.RowMajor(s.lat, dims)
	if err != nil {
		return nil, err
	}
	return &Strategy{schema: s, Path: p, Snaked: false}, nil
}

// WithSnaking returns the strategy with snaking switched on or off.
func (st *Strategy) WithSnaking(on bool) *Strategy {
	return &Strategy{schema: st.schema, Path: st.Path, Snaked: on}
}

// ExpectedCost returns the strategy's expected seek cost over the workload
// (average contiguous fragments per query, weighted by class probability),
// computed analytically from the characteristic vector.
func (st *Strategy) ExpectedCost(w *Workload) (float64, error) {
	if w.schema != st.schema {
		return 0, fmt.Errorf("snakes: workload and strategy use different schemas")
	}
	return cost.OfPath(st.Path, st.Snaked).ExpectedCost(w.w), nil
}

// ClassCost returns the strategy's average cost for one query class.
func (st *Strategy) ClassCost(c Class) float64 {
	return cost.OfPath(st.Path, st.Snaked).ClassCost(c)
}

// SnakingBenefit returns the factor by which snaking improves this path for
// class c; it is always in [1, 2) (Theorem 3).
func (st *Strategy) SnakingBenefit(c Class) float64 {
	return cost.Benefit(st.Path, c)
}

// String renders the strategy.
func (st *Strategy) String() string {
	if st.Snaked {
		return "snaked " + st.Path.String()
	}
	return st.Path.String()
}

// Order is a materialized linearization of the schema's cells.
type Order = linear.Order

// Materialize produces the strategy's concrete cell order.
func (st *Strategy) Materialize() (*Order, error) {
	return linear.FromPath(st.schema.schema, st.Path, st.Snaked)
}

// Hilbert returns the Hilbert-curve linearization of the schema (all sides
// must be equal powers of two), the classical baseline the paper compares
// against.
func (s *Schema) Hilbert() (*Order, error) { return linear.Hilbert(s.schema) }

// ZOrder returns the Z-curve (bit interleaving) linearization.
func (s *Schema) ZOrder() (*Order, error) { return linear.ZOrder(s.schema) }

// GrayOrder returns the Gray-code curve linearization.
func (s *Schema) GrayOrder() (*Order, error) { return linear.GrayOrder(s.schema) }

// EvaluateOrder returns the expected seek cost of an arbitrary
// linearization over the workload, measured from its edge structure.
func (s *Schema) EvaluateOrder(o *Order, w *Workload) float64 {
	return cost.EvaluateOrder(s.lat, o, w.w)
}

// Layout packs per-cell payloads along a strategy's order into fixed-size
// disk pages; see internal/storage for the measurement semantics.
type Layout = storage.Layout

// Pack materializes the strategy and packs bytesPerCell into pages of the
// given size (use snakes.DefaultPageSize for the paper's 8 KB).
func (st *Strategy) Pack(bytesPerCell []int64, pageSize int64) (*Layout, error) {
	o, err := st.Materialize()
	if err != nil {
		return nil, err
	}
	return storage.NewLayout(o, bytesPerCell, pageSize)
}

// FrameSize returns the stored size of one record payload under the
// FileStore's length-prefixed framing, for sizing a cell's capacity.
func FrameSize(payloadLen int) int64 { return storage.FrameSize(payloadLen) }

// NextRecord splits the first record off a non-empty run of a cell's
// framed bytes, as FileStore.ReadPlanCellsCtx hands them over: its payload
// and the bytes after it, or the framing error that names the cell.
func NextRecord(cell int, framed []byte) (rec, rest []byte, err error) {
	return storage.NextRecord(cell, framed)
}

// QueryPlan is a region prepared once by FileStore.Plan: its analytic cost
// and its seek runs, executed by ReadPlanCtx or ReadPlanCellsCtx.
type QueryPlan = storage.QueryPlan

// FileStore is the queryable packed fact table: Put records into cells,
// then Plan grid queries and read them with ReadPlanCtx (records) or
// ReadPlanCellsCtx (whole cells; rowcodec sums them exactly). Each query
// reads its seek runs in disk order, in span windows sized by the pool.
// Records live in a fixed-page file accessed
// through an LRU buffer pool, so real page traffic can be compared against
// the analytic model (Layout().Query). See Strategy.MigrateCtx for physical
// re-clustering.
//
// A FileStore may be shared across goroutines: reads run concurrently, the
// pool coalesces concurrent misses on the same page into one disk read, and
// Close waits for in-flight readers before releasing the file.
// Context-accepting methods (ReadPlanCtx, ReadPlanCellsCtx, VerifyCtx) stop
// between page reads when the context ends.
type FileStore = storage.FileStore

// ReadOptions is accepted and ignored by FileStore.ReadQueryOptCtx.
//
// Deprecated: every read runs one schedule, sized by the pool. Kept only for
// the benchmark module until its re-baseline (ROADMAP item 1) drops it.
type ReadOptions = storage.ReadOptions

// PoolStats counts a FileStore buffer pool's traffic since creation.
type PoolStats = storage.PoolStats

// PoolTally accumulates the pool traffic of one request, including an
// observed seek count; attach one to a query's context with WithPoolTally
// to get exact per-request cost attribution under concurrency.
type PoolTally = storage.PoolTally

// WithPoolTally routes the pool accounting of every context-accepting
// FileStore read issued under the returned context into t.
func WithPoolTally(ctx context.Context, t *PoolTally) context.Context {
	return storage.WithPoolTally(ctx, t)
}

// RetryPolicy configures how the buffer pool retries transient I/O errors;
// its backoff sleeps are context-aware.
type RetryPolicy = storage.RetryPolicy

// ErrTransient marks a retryable I/O failure; the pool retries these under
// its RetryPolicy before surfacing them.
var ErrTransient = storage.ErrTransient

// ErrClosed marks an operation issued against a FileStore after Close;
// match with errors.Is.
var ErrClosed = storage.ErrClosed

// ErrGridTooLarge marks a schema with 2^31 grid cells or more, ErrCellTooLarge
// a cell whose reserved extent is 4 GiB or more: both are refused before
// anything is sized by them; match with errors.Is.
var (
	ErrGridTooLarge = linear.ErrGridTooLarge
	ErrCellTooLarge = storage.ErrCellTooLarge
)

// ErrOverloaded marks a query shed by admission control; match with
// errors.Is and surface backpressure (e.g. HTTP 503) instead of retrying
// immediately.
var ErrOverloaded = storage.ErrOverloaded

// Admission bounds concurrent query weight against a store with a strict
// FIFO weighted semaphore; see NewAdmission.
type Admission = storage.Admission

// AdmissionStats is a snapshot of an Admission controller's state.
type AdmissionStats = storage.AdmissionStats

// NewAdmission creates an admission controller with the given total weight
// capacity and queue-wait timeout. Weight a grid query by its analytic page
// count (Layout.Query(region).Pages) so one huge scan and many point
// queries compete for the same budget.
func NewAdmission(capacity int64, queueTimeout time.Duration) (*Admission, error) {
	return storage.NewAdmission(capacity, queueTimeout)
}

// CreateFileStore materializes the strategy and creates a page file at
// path sized for the given per-cell byte capacities.
func (st *Strategy) CreateFileStore(path string, bytesPerCell []int64, pageSize, poolFrames int) (*FileStore, error) {
	o, err := st.Materialize()
	if err != nil {
		return nil, err
	}
	return storage.CreateFileStore(path, o, bytesPerCell, pageSize, poolFrames)
}

// OpenFileStore reopens a previously created file store under this
// strategy's order. Pass the loaded byte counts saved from
// FileStore.LoadedBytes.
func (st *Strategy) OpenFileStore(path string, bytesPerCell []int64, pageSize, poolFrames int, loadedBytes []int64) (*FileStore, error) {
	o, err := st.Materialize()
	if err != nil {
		return nil, err
	}
	return storage.OpenFileStore(path, o, bytesPerCell, pageSize, poolFrames, loadedBytes)
}

// DefaultPageSize is the paper's 8 KB disk page.
const DefaultPageSize = storage.DefaultPageSize

// PageTrailerSize is the per-page overhead of the file store's CRC32C
// checksum trailer; each physical page holds PageSize−PageTrailerSize
// usable bytes, and the analytic accounting agrees.
const PageTrailerSize = storage.PageTrailerSize

// ErrCorruptPage marks a file-store page that failed checksum or format
// verification; match with errors.Is.
var ErrCorruptPage = storage.ErrCorruptPage

// CorruptPageError carries the physical page index of a verification
// failure; extract with errors.As.
type CorruptPageError = storage.CorruptPageError

// VerifyReport is the outcome of FileStore.Verify, the scrub pass that
// re-reads every page from disk and checks checksums and fill invariants.
type VerifyReport = storage.VerifyReport

// ScrubReport is the outcome of FileStore.ScrubRange, one window of the
// scrub walk: a VerifyReport plus the pages it repaired and the cursor the
// next window starts at.
type ScrubReport = storage.ScrubReport

// ScrubCursor is where a sequence of scrub windows stands: a page, and a
// cell the last window left open across it.
type ScrubCursor = storage.ScrubCursor

// VerifyProblem is one defect in a VerifyReport, locating the damage by
// page, cell, and grid coordinates.
type VerifyProblem = storage.VerifyProblem

// ErrUnrepairable marks a corrupt page whose parity group has more damage
// than one XOR parity page can reconstruct; match with errors.Is.
var ErrUnrepairable = storage.ErrUnrepairable

// ErrNoParity marks a repair attempted on a store with no usable parity
// sidecar (never written, or stale after later writes).
var ErrNoParity = storage.ErrNoParity

// UnrepairableError carries the coordinates of unrepairable damage: the
// page asked about, its parity group, every bad page in the group, and the
// cell/grid coordinates of the page; extract with errors.As.
type UnrepairableError = storage.UnrepairableError

// RepairReport is the outcome of FileStore.RepairCtx, the sweep that
// repairs every corrupt page it can and reports the rest.
type RepairReport = storage.RepairReport

// DefaultParityGroup is the default number of data pages per XOR parity
// page — 1/8 space overhead for one-bad-page-per-group repair.
const DefaultParityGroup = storage.DefaultParityGroup

// ParityPath returns the parity sidecar path for a store file
// ("<store>.parity").
func ParityPath(storePath string) string { return storage.ParityPath(storePath) }

// Region is a grid query's footprint: one coordinate range per dimension.
type Region = linear.Region

// Range is one dimension's coordinate interval within a Region.
type Range = linear.Range

// QueryStats is the measured disk cost of one query.
type QueryStats = storage.Stats

// Distance returns the total-variation distance between two workloads over
// the same schema, in [0, 1]: the re-clustering drift signal.
func Distance(a, b *Workload) (float64, error) {
	if a.schema != b.schema {
		return 0, fmt.Errorf("snakes: comparing workloads over different schemas")
	}
	return workload.Distance(a.w, b.w)
}

// Drifted reports whether the estimator's current distribution has moved
// more than threshold (total-variation) from the baseline workload the
// current clustering was chosen for.
func (e *Estimator) Drifted(baseline *Workload, smoothing, threshold float64) (bool, float64, error) {
	return e.e.Drifted(baseline.w, smoothing, threshold)
}
