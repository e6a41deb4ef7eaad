package storage

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/lattice"
	"repro/internal/linear"
)

// diffOrders builds one order of every kind the store is deployed or
// compared under: on a random unbalanced hierarchy a random lattice path
// snaked and not, and a random row-major nesting; on the binary 8×8 grid the
// Z, Gray and Hilbert curves.
func diffOrders(t *testing.T, rng *rand.Rand) []*linear.Order {
	t.Helper()
	var dims []hierarchy.Dimension
	for d, k := 0, 2+rng.Intn(2); d < k; d++ {
		fanouts := make([]int, 1+rng.Intn(3))
		for i := range fanouts {
			fanouts[i] = 1 + rng.Intn(3)
		}
		dims = append(dims, hierarchy.Dimension{Name: fmt.Sprintf("d%d", d), Fanouts: fanouts})
	}
	s := hierarchy.MustSchema(dims...)
	var steps, nest []int
	for d, dim := range s.Dims {
		nest = append(nest, d)
		for i := 0; i < dim.Levels(); i++ {
			steps = append(steps, d)
		}
	}
	rng.Shuffle(len(steps), func(i, j int) { steps[i], steps[j] = steps[j], steps[i] })
	rng.Shuffle(len(nest), func(i, j int) { nest[i], nest[j] = nest[j], nest[i] })
	path := core.MustPath(lattice.New(s), steps)
	bin := hierarchy.MustSchema(hierarchy.Binary("A", 3), hierarchy.Binary("B", 3))
	var out []*linear.Order
	for _, build := range []func() (*linear.Order, error){
		func() (*linear.Order, error) { return linear.FromPath(s, path, true) },
		func() (*linear.Order, error) { return linear.FromPath(s, path, false) },
		func() (*linear.Order, error) { return linear.RowMajor(s, nest) },
		func() (*linear.Order, error) { return linear.ZOrder(bin) },
		func() (*linear.Order, error) { return linear.GrayOrder(bin) },
		func() (*linear.Order, error) { return linear.Hilbert(bin) },
	} {
		o, err := build()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, o)
	}
	return out
}

// diffStore is a random store over o plus an overlay to install on it.
type diffStore struct {
	fs      *FileStore
	overlay map[int][]byte // overlay hits, overlay-only cells, and a cell overlaid with nothing
}

// diffRecord is a text record whose first column is a decimal, of varied
// length so records straddle the 64-byte pages.
func diffRecord(rng *rand.Rand) []byte {
	rec := strconv.AppendFloat(nil, float64(rng.Intn(2_000_000)-1_000_000)/100, 'f', 2, 64)
	rec = append(rec, ',')
	return append(rec, bytes.Repeat([]byte{'x'}, rng.Intn(70))...)
}

func diffDecode(rec []byte) float64 {
	v, err := strconv.ParseFloat(string(rec[:bytes.IndexByte(rec, ',')]), 64)
	if err != nil {
		panic(err)
	}
	return v
}

// buildDiffStore fills o with random cells — no reservation, exactly filled
// and (unless loaded) partially filled or reserved but unwritten — on a pool
// larger than the file.
func buildDiffStore(t *testing.T, rng *rand.Rand, o *linear.Order, loaded bool) *diffStore {
	t.Helper()
	n := o.Len()
	records := make([][][]byte, n)
	sizes := make([]int64, n)
	for c := 0; c < n; c++ {
		if rng.Intn(4) == 0 {
			continue // no reservation at all
		}
		for k := 1 + rng.Intn(3); k > 0; k-- {
			rec := diffRecord(rng)
			sizes[c] += FrameSize(len(rec))
			if loaded || rng.Intn(3) > 0 { // otherwise reserved, not written
				records[c] = append(records[c], rec)
			}
		}
	}
	layout, err := NewFileLayout(o, sizes, 64)
	if err != nil {
		t.Fatal(err)
	}
	// A pool larger than the file: cold counts measure the layout, not LRU.
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "diff.db"), o, sizes, 64, int(layout.TotalPages())+8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	for c, recs := range records {
		for _, rec := range recs {
			if err := fs.PutRecord(c, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	ds := &diffStore{fs: fs, overlay: map[int][]byte{}}
	for c := 0; c < n; c++ {
		switch rng.Intn(8) {
		case 0: // replaces whatever the base holds; on an empty cell, overlay-only
			ds.overlay[c] = FrameRecords(diffRecord(rng), diffRecord(rng))
		case 1:
			ds.overlay[c] = FrameRecords() // the cell was emptied
		}
	}
	return ds
}

func diffRegions(rng *rand.Rand, o *linear.Order) []linear.Region {
	shape := o.Shape()
	full := make(linear.Region, len(shape))
	cell := make(linear.Region, len(shape))
	for d, n := range shape {
		full[d] = linear.Range{Lo: 0, Hi: n}
		lo := rng.Intn(n)
		cell[d] = linear.Range{Lo: lo, Hi: lo + 1}
	}
	out := []linear.Region{full, cell}
	for i := 0; i < 6; i++ {
		r := make(linear.Region, len(shape))
		for d, n := range shape {
			lo := rng.Intn(n)
			r[d] = linear.Range{Lo: lo, Hi: lo + 1 + rng.Intn(n-lo)}
		}
		out = append(out, r)
	}
	return out
}

// readOutcome is everything one cold read of a region produced.
type readOutcome struct {
	events         []readEvent
	sum            float64
	misses, seeks  int64
	deltaHits      int64
	planHit, plans int64
}

func coldOutcome(t *testing.T, fs *FileStore, read func(ctx context.Context, fn func(int, []byte) error) error) readOutcome {
	t.Helper()
	if err := fs.Pool().Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	var out readOutcome
	var tally PoolTally
	err := read(WithPoolTally(context.Background(), &tally), func(cell int, rec []byte) error {
		out.events = append(out.events, readEvent{cell, append([]byte(nil), rec...)})
		out.sum += diffDecode(rec)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	out.misses, out.seeks, out.deltaHits = tally.Stats().Misses, tally.Seeks(), tally.DeltaHits()
	out.planHit, out.plans = tally.PlanHits(), tally.PlanHits()+tally.PlanMisses()
	return out
}

// TestReadPipelineMatchesOracles is the differential suite: on random
// unbalanced hierarchies under every order kind, random fills and random
// regions, with and without an overlay, the planner must price a region
// exactly as the enumerate-sort-merge oracle does, and the executor must
// deliver the per-cell copy reader's exact (cell, framed bytes) sequence —
// each filled or overlaid cell once, in disk order, page-straddling cells
// included — and its exact (cell, record) sequence, with a bit-identical
// sum, on every schedule. On a cold pool its page and seek counts equal the
// oracle reader's at Parallelism 1, and the plan's analytic prediction on
// every schedule once the store is exactly filled.
func TestReadPipelineMatchesOracles(t *testing.T) {
	schedules := []ReadOptions{{}, {Parallelism: 1, Readahead: 3}, {Parallelism: 2}, {Parallelism: 2, Readahead: 3}, {Parallelism: 4, Readahead: 8}}
	straddling := 0 // base cells the oracle read across a page boundary
	defer func() {
		if straddling == 0 {
			t.Error("no cell straddled a page: the cell API's gathering leg went untested")
		}
	}()
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, o := range diffOrders(t, rng) {
			for _, loaded := range []bool{true, false} {
				ds := buildDiffStore(t, rng, o, loaded)
				fs := ds.fs
				for _, withOverlay := range []bool{false, true} {
					fs.SetOverlay(nil)
					if withOverlay {
						fs.SetOverlay(func(cell int) ([]byte, bool) { b, ok := ds.overlay[cell]; return b, ok })
					}
					for _, r := range diffRegions(rng, o) {
						label := fmt.Sprintf("seed %d order %s loaded=%v overlay=%v region %v", seed, o.Name, loaded, withOverlay, r)
						want := oracleQuery(fs.Layout(), r)
						if got := fs.Layout().Query(r); got != want {
							t.Fatalf("%s: Layout.Query %+v, oracle %+v", label, got, want)
						}
						plan, err := fs.Plan(context.Background(), r)
						if err != nil {
							t.Fatal(err)
						}
						if plan.Stats != want {
							t.Fatalf("%s: plan stats %+v, oracle %+v", label, plan.Stats, want)
						}
						ref := coldOutcome(t, fs, func(ctx context.Context, fn func(int, []byte) error) error {
							return oracleRead(ctx, fs, r, fn)
						})
						refCells := collectReads(t, func(fn func(int, []byte) error) error {
							return oracleCells(context.Background(), fs, r, fn)
						})
						for _, c := range refCells {
							e := fs.dir[fs.layout.order.PosOf(c.cell)]
							if u := fs.layout.usable(); !withOverlay && len(c.rec) > 0 && e.start/u != (e.start+int64(len(c.rec))-1)/u {
								straddling++
							}
						}
						for _, opt := range schedules {
							cells := collectReads(t, func(fn func(int, []byte) error) error {
								return fs.ReadPlanCellsCtx(context.Background(), plan, opt, fn)
							})
							if fmt.Sprint(cells) != fmt.Sprint(refCells) {
								t.Fatalf("%s opt %+v: cells %v, oracle %v", label, opt, cells, refCells)
							}
							got := coldOutcome(t, fs, func(ctx context.Context, fn func(int, []byte) error) error {
								return fs.ReadQueryOptCtx(ctx, r, opt, fn)
							})
							if len(got.events) != len(ref.events) {
								t.Fatalf("%s opt %+v: %d records, oracle %d", label, opt, len(got.events), len(ref.events))
							}
							for i := range got.events {
								if got.events[i].cell != ref.events[i].cell || !bytes.Equal(got.events[i].rec, ref.events[i].rec) {
									t.Fatalf("%s opt %+v: record %d = cell %d %q, oracle cell %d %q", label, opt, i,
										got.events[i].cell, got.events[i].rec, ref.events[i].cell, ref.events[i].rec)
								}
							}
							if math.Float64bits(got.sum) != math.Float64bits(ref.sum) {
								t.Errorf("%s opt %+v: sum %v not bit-identical to oracle %v", label, opt, got.sum, ref.sum)
							}
							if got.deltaHits != ref.deltaHits {
								t.Errorf("%s opt %+v: %d delta hits, oracle %d", label, opt, got.deltaHits, ref.deltaHits)
							}
							if got.plans != 1 || got.planHit != 1 {
								t.Errorf("%s opt %+v: %d plan lookups, %d hits; want one lookup, a hit", label, opt, got.plans, got.planHit)
							}
							if opt.Parallelism <= 1 && (got.misses != ref.misses || got.seeks != ref.seeks) {
								t.Errorf("%s opt %+v: cold %d pages %d seeks, oracle reader %d pages %d seeks",
									label, opt, got.misses, got.seeks, ref.misses, ref.seeks)
							}
							if loaded && !withOverlay && (got.misses != want.Pages || got.seeks != want.Seeks) {
								t.Errorf("%s opt %+v: cold %d pages %d seeks, plan predicts %d pages %d seeks",
									label, opt, got.misses, got.seeks, want.Pages, want.Seeks)
							}
						}
					}
				}
			}
		}
	}
}

// multiRunFixture is a row-major 8×8 store of text records and a column
// region that fragments into one multi-page seek run per row.
func multiRunFixture(t *testing.T) (*FileStore, linear.Region) {
	t.Helper()
	rng := rand.New(rand.NewSource(5))
	ds := buildDiffStore(t, rng, concurrentOrder(t), true)
	r := linear.Region{{Lo: 0, Hi: 8}, {Lo: 2, Hi: 5}}
	p, err := ds.fs.Plan(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seeks < 3 || p.Pages < 2*p.Seeks {
		t.Fatalf("fixture region plans as %+v, want several multi-page runs", p.Stats)
	}
	return ds.fs, r
}

// TestReadCancelledMidRunStopsAtPageBoundary: a context cancelled from
// inside fn stops the read before it pins another page, on either
// schedule, and leaves no pin behind.
func TestReadCancelledMidRunStopsAtPageBoundary(t *testing.T) {
	fs, r := multiRunFixture(t)
	for _, opt := range []ReadOptions{{}, {Parallelism: 4, Readahead: 2}} {
		if err := fs.Pool().Reset(context.Background()); err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		pinned := func() int64 { st := fs.Pool().Stats(); return st.Hits + st.Misses }
		var atCancel int64
		err := fs.ReadQueryOptCtx(ctx, r, opt, func(int, []byte) error {
			if ctx.Err() == nil {
				atCancel = pinned()
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("opt %+v: err = %v, want context.Canceled", opt, err)
		}
		if got := pinned(); opt.Parallelism <= 1 && got != atCancel {
			t.Errorf("opt %+v: %d pages pinned at the cancel, %d when the read returned", opt, atCancel, got)
		}
		if err := fs.Pool().Reset(context.Background()); err != nil {
			t.Errorf("opt %+v: pins left behind: %v", opt, err)
		}
	}
}

// TestPlanRevalidatedAcrossWriteEpoch: a write between Plan and ReadPlanCtx
// moves the epoch, and the executor re-plans — it never reads with the
// plan's stale fills or stale run extents.
func TestPlanRevalidatedAcrossWriteEpoch(t *testing.T) {
	o := concurrentOrder(t)
	sizes := uniformBytes(o.Len(), 3*FrameSize(40))
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "epoch.db"), o, sizes, 64, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	ctx := context.Background()
	full := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}
	read := func(p *QueryPlan) (cells []int, n int) {
		t.Helper()
		if err := fs.ReadPlanCtx(ctx, p, ReadOptions{}, func(cell int, rec []byte) error {
			cells = append(cells, cell)
			n += len(rec)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return cells, n
	}
	empty, err := fs.Plan(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	// Planned over an empty store, executed after cells at both ends filled:
	// the stale plan has no pages at all.
	big := bytes.Repeat([]byte{'a'}, 40)
	for _, cell := range []int{0, 63} {
		if err := fs.PutCellBytes(cell, FrameRecords(big, big, big)); err != nil {
			t.Fatal(err)
		}
	}
	if cells, n := read(empty); fmt.Sprint(cells) != "[0 0 0 63 63 63]" || n != 6*40 {
		t.Fatalf("read through the pre-write plan saw cells %v, %d bytes", cells, n)
	}
	// Planned with cell 63 full, executed after it shrank and cell 30 grew.
	stale, err := fs.Plan(ctx, full)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.PutCellBytes(63, FrameRecords([]byte("z"))); err != nil {
		t.Fatal(err)
	}
	if err := fs.PutCellBytes(30, FrameRecords(big)); err != nil {
		t.Fatal(err)
	}
	if cells, n := read(stale); fmt.Sprint(cells) != "[0 0 0 30 63]" || n != 4*40+1 {
		t.Fatalf("read through the stale plan saw cells %v, %d bytes", cells, n)
	}
	if cell, _ := fs.PlanCacheInvalidations(); cell == 0 {
		t.Error("no stale plan was counted as invalidated")
	}
}

// TestWarmReadAllocatesPerRequestOnly is the allocation gate of the read
// pipeline: a warm, untraced Parallelism=1 read + sum allocates a small
// constant per request — the same for one cell as for a multi-run region,
// so nothing is allocated per run, page, cell or record.
func TestWarmReadAllocatesPerRequestOnly(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled scratch is dropped at random under the race detector; `make alloc-gates` runs this without it")
	}
	fs, region := multiRunFixture(t)
	ctx := context.Background()
	allocs := func(r linear.Region) float64 {
		sum := func() {
			var tally PoolTally
			if _, _, err := fs.SumOptCtx(WithPoolTally(ctx, &tally), r, ReadOptions{Parallelism: 1, Readahead: 8}, diffDecode); err != nil {
				t.Fatal(err)
			}
		}
		sum() // warm the pool, the plan cache and the scratch pool
		return testing.AllocsPerRun(200, sum)
	}
	one := allocs(linear.Region{{Lo: 3, Hi: 4}, {Lo: 3, Hi: 4}})
	many := allocs(region)
	if many != one || many > 6 {
		t.Errorf("warm read + sum allocates %v times for one cell, %v for a multi-run region; want equal and <= 6", one, many)
	}
}
