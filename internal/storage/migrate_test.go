package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/linear"
	"repro/internal/rowcodec"
	"repro/internal/tpcd"
)

func TestMigratePreservesDataAndImprovesLayout(t *testing.T) {
	s := hierarchy.MustSchema(hierarchy.Binary("A", 2), hierarchy.Binary("B", 2))
	rowMajor, err := linear.RowMajor(s, []int{1, 0}) // column-major: bad for row scans
	if err != nil {
		t.Fatal(err)
	}
	bytes := make([]int64, 16)
	for i := range bytes {
		bytes[i] = rowcodec.FrameSize(8)
	}
	dir := t.TempDir()
	src, err := CreateFileStore(filepath.Join(dir, "old.db"), rowMajor, bytes, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	buf := make([]byte, 8)
	for c := 0; c < 16; c++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(c)))
		if err := rowcodec.PutRecord(src, c, buf); err != nil {
			t.Fatal(err)
		}
	}

	better, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := MigrateCtx(context.Background(), src, filepath.Join(dir, "new.db"), better, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()

	// Every region sums identically on both stores.
	for _, r := range []linear.Region{
		{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}},
		{{Lo: 1, Hi: 2}, {Lo: 0, Hi: 4}},
		{{Lo: 0, Hi: 4}, {Lo: 2, Hi: 3}},
		{{Lo: 2, Hi: 4}, {Lo: 0, Hi: 2}},
	} {
		a, _, err := sumRegion(context.Background(), src, r, decodeF64)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := sumRegion(context.Background(), dst, r, decodeF64)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("region %v: sums differ %v vs %v", r, a, b)
		}
	}

	// Row scans are now contiguous on the new layout.
	row := linear.Region{{Lo: 1, Hi: 2}, {Lo: 0, Hi: 4}}
	if got := dst.Layout().Query(row).Seeks; got != 1 {
		t.Errorf("row query on migrated store: %d seeks, want 1", got)
	}
	if got := src.Layout().Query(row).Seeks; got <= 1 {
		t.Errorf("row query on old store: %d seeks, expected several", got)
	}
}

// TestMigrateCleansUpOnFailure injects a permanent read fault into the
// source store timed to fire during the migration copy: MigrateCtx must
// fail loudly and delete its partial output file.
func TestMigrateCleansUpOnFailure(t *testing.T) {
	s := hierarchy.MustSchema(hierarchy.Binary("A", 2), hierarchy.Binary("B", 2))
	colMajor, err := linear.RowMajor(s, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	bytes := make([]int64, 16)
	for i := range bytes {
		bytes[i] = rowcodec.FrameSize(8)
	}
	layout, err := NewFileLayout(colMajor, bytes, 32)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pf, err := CreatePageFile(filepath.Join(dir, "old.db"), 32, layout.TotalPages())
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	fi := NewFaultInjector(pf, 7)
	src, err := NewFileStoreOn(fi, colMajor, bytes, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for c := 0; c < 16; c++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(c)))
		if err := rowcodec.PutRecord(src, c, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := src.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	// Fail the first page read of the migration scan.
	fi.faults = append(fi.faults, Fault{Op: OpRead, Index: fi.Ops(OpRead), Kind: FaultPermanent})

	better, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(dir, "new.db")
	if _, err := MigrateCtx(context.Background(), src, newPath, better, 4); err == nil {
		t.Fatal("migration over a failing source should fail")
	} else if !errors.Is(err, ErrInjected) {
		t.Fatalf("migration error is untyped: %v", err)
	}
	if _, err := os.Stat(newPath); !os.IsNotExist(err) {
		t.Fatalf("partial migration output %s was not removed (stat err: %v)", newPath, err)
	}
}

// newMigrateSource builds a loaded 4x4 store for the cancellation and
// progress tests: cell c holds one 8-byte record encoding float64(c).
func newMigrateSource(t *testing.T, dir string) (*FileStore, *linear.Order, *linear.Order) {
	t.Helper()
	s := hierarchy.MustSchema(hierarchy.Binary("A", 2), hierarchy.Binary("B", 2))
	colMajor, err := linear.RowMajor(s, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	bytes := make([]int64, 16)
	for i := range bytes {
		bytes[i] = rowcodec.FrameSize(8)
	}
	src, err := CreateFileStore(filepath.Join(dir, "old.db"), colMajor, bytes, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for c := 0; c < 16; c++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(c)))
		if err := rowcodec.PutRecord(src, c, buf); err != nil {
			src.Close()
			t.Fatal(err)
		}
	}
	rowMajor, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		src.Close()
		t.Fatal(err)
	}
	return src, colMajor, rowMajor
}

// migrateInSteps runs a migration in steps of bytes each and returns the
// new store and, per step, the cells and the bytes it copied.
func migrateInSteps(ctx context.Context, old *FileStore, path string, order *linear.Order, frames, regionCells int, bytes int64) (*FileStore, [][2]int64, error) {
	m, err := StartMigration(ctx, old, path, order, frames, regionCells)
	if err != nil {
		return nil, nil, err
	}
	var steps [][2]int64
	for !m.Done() {
		before, _ := m.Progress()
		n, err := m.Step(ctx, bytes)
		if err != nil {
			return nil, steps, err
		}
		after, _ := m.Progress()
		steps = append(steps, [2]int64{int64(after - before), n})
	}
	dst, err := m.Finish(ctx)
	return dst, steps, err
}

// TestMigrateCtxCancelCleansUp cancels the migration between its steps,
// partway through the copy: the next Step must return the context error
// and leave no partial output file behind, and so must MigrateCtx under a
// context cancelled before it starts.
func TestMigrateCtxCancelCleansUp(t *testing.T) {
	dir := t.TempDir()
	src, _, better := newMigrateSource(t, dir)
	defer src.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	newPath := filepath.Join(dir, "new.db")
	m, err := StartMigration(ctx, src, newPath, better, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls int
	for err == nil && !m.Done() {
		_, err = m.Step(ctx, 1) // one cell a step: no second fits in a byte
		calls++
		if done, total := m.Progress(); done == total/2 {
			cancel()
		}
	}
	if err == nil {
		t.Fatal("cancelled migration should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled migration error is untyped: %v", err)
	}
	if calls >= 16 {
		t.Errorf("%d steps ran; cancellation should have cut the copy short", calls)
	}
	if _, err := os.Stat(newPath); !os.IsNotExist(err) {
		t.Fatalf("partial migration output %s was not removed (stat err: %v)", newPath, err)
	}
	// A context cancelled before the copy starts must also leave nothing.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := MigrateCtx(pre, src, newPath, better, 4); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled migration: %v", err)
	}
	if _, err := os.Stat(newPath); !os.IsNotExist(err) {
		t.Fatalf("pre-cancelled migration left %s behind", newPath)
	}
	// The source store is still fully readable afterwards.
	all := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}
	sum, _, err := sumRegion(context.Background(), src, all, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	if want := 120.0; sum != want {
		t.Errorf("source sum after aborted migration = %v, want %v", sum, want)
	}
}

// TestMigrateCtxProgress checks the step contract: 16 one-record cells in
// steps of five cells' bytes take ⌈16/5⌉ steps, each reporting the bytes it
// copied, with Progress after each step giving (done, total) pairs ending
// at (total, total), and Done only after the last.
func TestMigrateCtxProgress(t *testing.T) {
	dir := t.TempDir()
	src, _, better := newMigrateSource(t, dir)
	defer src.Close()

	ctx := context.Background()
	m, err := StartMigration(ctx, src, filepath.Join(dir, "new.db"), better, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var got [][2]int
	var copied []int64
	var done []bool
	for steps := 0; !m.Done() && steps < 16; steps++ {
		n, err := m.Step(ctx, 5*rowcodec.FrameSize(8)) // five of the source's one-record cells
		if err != nil {
			t.Fatal(err)
		}
		d, total := m.Progress()
		got, copied, done = append(got, [2]int{d, total}), append(copied, n), append(done, m.Done())
	}
	dst, err := m.Finish(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if want := [][2]int{{5, 16}, {10, 16}, {15, 16}, {16, 16}}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%d steps reported %v, want %d reporting %v", len(got), got, len(want), want)
	}
	f := rowcodec.FrameSize(8)
	if want := fmt.Sprint([]int64{5 * f, 5 * f, 5 * f, f}); fmt.Sprint(copied) != want {
		t.Fatalf("steps copied %v bytes, want %s", copied, want)
	}
	if want := "[false false false true]"; fmt.Sprint(done) != want {
		t.Fatalf("Done after each step %v, want %s", done, want)
	}
}

func TestMigrateShapeMismatch(t *testing.T) {
	s1 := hierarchy.MustSchema(hierarchy.Binary("A", 2), hierarchy.Binary("B", 2))
	s2 := hierarchy.MustSchema(hierarchy.Binary("A", 1), hierarchy.Binary("B", 1))
	o1, err := linear.RowMajor(s1, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	o2, err := linear.RowMajor(s2, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	bytes := make([]int64, 16)
	src, err := CreateFileStore(filepath.Join(t.TempDir(), "s.db"), o1, bytes, 32, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if _, err := MigrateCtx(context.Background(), src, filepath.Join(t.TempDir(), "d.db"), o2, 2); err == nil {
		t.Error("cell-count mismatch should fail")
	}
}

// migrateCase is a random source store, the records every cell must hold
// after a migration (the overlay's where it has the cell, the base file's
// otherwise), and the capacities a fresh build of them needs.
type migrateCase struct {
	src   *FileStore
	truth map[int][][]byte
	sizes []int64
}

// buildMigrateCase fills o at random. When exact, every reserved cell's
// truth fills its extent to the byte — held by the base file, or by the
// overlay over a base cell that holds other records of the same lengths or
// was never written — so the migrated store is exactly filled and its cold
// reads must cost what its layout predicts. Otherwise fills are partial and
// the overlay also shrinks and empties cells.
func buildMigrateCase(t *testing.T, rng *rand.Rand, o *linear.Order, exact bool) *migrateCase {
	t.Helper()
	n := o.Len()
	mc := &migrateCase{truth: map[int][][]byte{}, sizes: make([]int64, n)}
	base := make([][][]byte, n)
	overlay := map[int][]byte{}
	sameShape := func(recs [][]byte) [][]byte {
		out := make([][]byte, len(recs))
		for i, rec := range recs {
			other := diffRecord(rng)
			for len(other) < len(rec) {
				other = append(other, 'y')
			}
			out[i] = other[:len(rec)]
		}
		return out
	}
	for c := 0; c < n; c++ {
		if rng.Intn(4) == 0 {
			continue // no reservation at all
		}
		var recs [][]byte
		for k := 1 + rng.Intn(3); k > 0; k-- {
			rec := diffRecord(rng)
			mc.sizes[c] += rowcodec.FrameSize(len(rec))
			recs = append(recs, rec)
		}
		switch pick := rng.Intn(6); {
		case pick == 0: // the overlay rewrites the cell in place
			base[c], mc.truth[c] = sameShape(recs), recs
			overlay[c] = rowcodec.FrameRecords(recs...)
		case pick == 1: // reserved, never written; the overlay fills it
			mc.truth[c] = recs
			overlay[c] = rowcodec.FrameRecords(recs...)
		case pick == 2 && !exact: // partially filled
			base[c], mc.truth[c] = recs[:len(recs)-1], recs[:len(recs)-1]
		case pick == 3 && !exact: // emptied by the overlay
			base[c] = recs
			overlay[c] = rowcodec.FrameRecords()
		default:
			base[c], mc.truth[c] = recs, recs
		}
	}
	mc.src = newTempStore(t, o, mc.sizes, 64)
	for c, recs := range base {
		for _, rec := range recs {
			if err := rowcodec.PutRecord(mc.src, c, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	mc.src.SetOverlay(func(cell int) ([]byte, bool) { b, ok := overlay[cell]; return b, ok })
	return mc
}

// TestMigrateMatchesFreshBuild is the migration differential: on random
// unbalanced hierarchies, between every pair of order kinds, with random
// fills and a random overlay, in one-byte steps or one unbounded step, the
// migrated store holds in every cell exactly the records of a fresh build
// under the new order from the plain cell → records map, scrubs clean, took
// a step for each cell with records when stepped a byte at a time, and —
// once exactly filled — answers cold reads in the pages and seeks its layout predicts.
func TestMigrateMatchesFreshBuild(t *testing.T) {
	ctx := context.Background()
	cellRecords := func(fs *FileStore, cell int) [][]byte {
		t.Helper()
		var out [][]byte
		if err := fs.ReadCellCtx(ctx, cell, func(b []byte) error {
			return rowcodec.WalkRecords(0, b, func(_ int, rec []byte) error {
				out = append(out, append([]byte(nil), rec...))
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		orders := diffOrders(t, rng)
		for i, oldOrder := range orders {
			// The next order of the same grid: the random hierarchy's three
			// and the binary grid's three each cycle among themselves.
			newOrder := orders[i/3*3+(i+1)%3]
			n := oldOrder.Len()
			for _, exact := range []bool{true, false} {
				mc := buildMigrateCase(t, rng, oldOrder, exact)
				fresh := newTempStore(t, newOrder, mc.sizes, 64)
				for c, recs := range mc.truth {
					for _, rec := range recs {
						if err := rowcodec.PutRecord(fresh, c, rec); err != nil {
							t.Fatal(err)
						}
					}
				}
				freshCells := make([]string, n)
				for c := range freshCells {
					freshCells[c] = fmt.Sprintf("%q", cellRecords(fresh, c))
				}
				filled := 0
				for _, recs := range mc.truth {
					if len(recs) > 0 {
						filled++
					}
				}
				for _, regionCells := range []int{1, 7, n} {
					for _, paced := range []bool{true, false} {
						label := fmt.Sprintf("seed %d %s -> %s exact=%v RegionCells=%d paced=%v", seed, oldOrder.Name, newOrder.Name, exact, regionCells, paced)
						path := filepath.Join(t.TempDir(), "migrated.db")
						budget, want := int64(math.MaxInt64), 1
						if paced {
							budget, want = 1, filled // one cell a step; an empty cell costs no bytes
						}
						dst, steps, err := migrateInSteps(ctx, mc.src, path, newOrder, int(fresh.Layout().TotalPages())+8, regionCells, budget)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if len(steps) < want {
							t.Errorf("%s: %d steps, want at least %d", label, len(steps), want)
						}
						for c := 0; c < n; c++ {
							if got := fmt.Sprintf("%q", cellRecords(dst, c)); got != freshCells[c] {
								t.Fatalf("%s: cell %d holds %s, a fresh build %s", label, c, got, freshCells[c])
							}
						}
						if rep, err := dst.Verify(); err != nil || !rep.OK() {
							t.Fatalf("%s: scrub of the migrated store: %v, %v", label, err, rep.Err())
						}
						if exact {
							for _, r := range diffRegions(rng, newOrder) {
								want := dst.Layout().Query(r)
								got := coldOutcome(t, dst, func(ctx context.Context, fn func(int, []byte) error) error {
									return readRegion(ctx, dst, r, fn)
								})
								if got.misses != want.Pages || got.seeks != want.Seeks {
									t.Errorf("%s region %v: cold %d pages %d seeks, layout predicts %d pages %d seeks",
										label, r, got.misses, got.seeks, want.Pages, want.Seeks)
								}
							}
						}
						if err := dst.Close(); err != nil {
							t.Fatalf("%s: %v", label, err)
						}
					}
				}
			}
		}
	}
}

// TestMigrateReclustersRowMajorOntoOptimum is incremental re-clustering on
// a tiny TPC-D warehouse: a store loaded row-major, with one pending overlay
// delta, migrates in bounded steps onto the DP-optimal snaked order of the
// featured workload. Row-major predicts more expected seeks than the
// optimum; afterwards every query of the workload reads, cold, exactly the
// pages and seeks the optimal layout predicts — regret 1, not merely near
// it — and every sum, the delta's included, is the sum of what the store
// was given.
func TestMigrateReclustersRowMajorOntoOptimum(t *testing.T) {
	ctx := context.Background()
	cfg := tpcd.Config{
		Manufacturers: 2, PartsPerMfr: 3, Suppliers: 3,
		Years: 2, MonthsPerYear: 2, DaysPerMonth: 3,
		RecordBytes: 16, PageBytes: 64, MeanRecordsPerCell: 2, Seed: 13,
	}
	ds, err := tpcd.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w, err := ds.Workload(tpcd.PaperWorkload7())
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.Optimal(w)
	if err != nil {
		t.Fatal(err)
	}
	optOrder, err := linear.FromPath(ds.Schema, best.Path, true)
	if err != nil {
		t.Fatal(err)
	}
	rowOrder, err := linear.RowMajor(ds.Schema, []int{tpcd.DimParts, tpcd.DimSupplier, tpcd.DimTime})
	if err != nil {
		t.Fatal(err)
	}

	// Load every record row-major, its measure in the first 8 bytes; truth
	// keeps each cell's measures in load order.
	sizes := make([]int64, len(ds.BytesPerCell))
	for c, b := range ds.BytesPerCell {
		sizes[c] = b / int64(cfg.RecordBytes) * rowcodec.FrameSize(cfg.RecordBytes)
	}
	dir := t.TempDir()
	src, err := CreateFileStore(filepath.Join(dir, "rowmajor.db"), rowOrder, sizes, int(cfg.PageBytes), 64)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	shape := ds.Schema.LeafCounts()
	cellOf := func(part, supp, day int) int { return (part*shape[1]+supp)*shape[2] + day }
	record := func(v float64) []byte {
		rec := make([]byte, cfg.RecordBytes)
		binary.LittleEndian.PutUint64(rec, math.Float64bits(v))
		return rec
	}
	truth := map[int][]float64{}
	var loadErr error
	ds.EachRecord(func(li *tpcd.LineItem) bool {
		cell := cellOf(li.Cell())
		truth[cell] = append(truth[cell], li.ExtendedPrice)
		loadErr = rowcodec.PutRecord(src, cell, record(li.ExtendedPrice))
		return loadErr == nil
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}

	// One pending delta: the fullest cell rewritten with every measure
	// raised by 1000, the same size, so it fits its extent. Only the overlay
	// holds it; the migration must carry it into the new order.
	pending := -1
	for c, vs := range truth {
		if pending < 0 || len(vs) > len(truth[pending]) || len(vs) == len(truth[pending]) && c < pending {
			pending = c
		}
	}
	recs := make([][]byte, len(truth[pending]))
	for i := range truth[pending] {
		truth[pending][i] += 1000
		recs[i] = record(truth[pending][i])
	}
	framed := rowcodec.FrameRecords(recs...)
	src.SetOverlay(func(cell int) ([]byte, bool) { return framed, cell == pending })

	// Every query of the workload, weighted by its probability: a class's
	// probability spread evenly over its blocks.
	type query struct {
		r linear.Region
		p float64
	}
	var queries []query
	for _, c := range w.Support() {
		blocks := 1
		for d, lv := range c {
			blocks *= ds.Schema.Dims[d].NodesAt(lv)
		}
		nodes := make([]int, len(c))
		for b := 0; b < blocks; b++ {
			for d, rest := len(c)-1, b; d >= 0; d-- {
				k := ds.Schema.Dims[d].NodesAt(c[d])
				nodes[d], rest = rest%k, rest/k
			}
			queries = append(queries, query{linear.ClassRegion(optOrder, c, nodes), w.Prob(c) / float64(blocks)})
		}
	}
	truthSum := func(r linear.Region) (sum float64, records int64) {
		for p := r[0].Lo; p < r[0].Hi; p++ {
			for s := r[1].Lo; s < r[1].Hi; s++ {
				for d := r[2].Lo; d < r[2].Hi; d++ {
					for _, v := range truth[cellOf(p, s, d)] {
						sum += v
						records++
					}
				}
			}
		}
		return sum, records
	}

	rowLayout, err := NewFileLayout(rowOrder, sizes, cfg.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	optLayout, err := NewFileLayout(optOrder, sizes, cfg.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	var rowSeeks, optSeeks float64
	for _, q := range queries {
		rowSeeks += q.p * float64(rowLayout.Query(q.r).Seeks)
		optSeeks += q.p * float64(optLayout.Query(q.r).Seeks)
	}
	if rowSeeks <= optSeeks {
		t.Fatalf("row-major predicts %.3f expected seeks, the DP optimum %.3f: nothing to re-cluster", rowSeeks, optSeeks)
	}
	t.Logf("%d queries; expected seeks row-major %.3f, optimal %.3f (regret %.2f)", len(queries), rowSeeks, optSeeks, rowSeeks/optSeeks)

	var budget int64 // an eighth of the store a step
	for _, b := range sizes {
		budget += b
	}
	budget = budget/8 + 1
	dst, steps, err := migrateInSteps(ctx, src, filepath.Join(dir, "optimal.db"), optOrder, 64, 8, budget)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	copied := 0
	for _, st := range steps {
		copied += int(st[0])
	}
	if len(steps) < 2 || copied != rowOrder.Len() {
		t.Fatalf("%d steps %v copied %d of %d cells: want an incremental copy of every cell", len(steps), steps, copied, rowOrder.Len())
	}
	for i, st := range steps {
		if n := int(st[0]); n <= 0 || n == rowOrder.Len() || (n > 1 && st[1] > budget) {
			t.Errorf("step %d copied %d cells in %d bytes, want part of the file within %d bytes, or one cell", i, n, st[1], budget)
		}
	}

	// The migrated store has no overlay: the delta lives in its pages now.
	var got []float64
	if err := dst.ReadCellCtx(ctx, pending, func(b []byte) error {
		return rowcodec.WalkRecords(0, b, func(_ int, rec []byte) error {
			got = append(got, decodeF64(rec[:8]))
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(truth[pending]) {
		t.Fatalf("pending cell %d after migration holds %v, want the delta's %v", pending, got, truth[pending])
	}

	var obsSeeks float64
	for _, q := range queries {
		pred := dst.Layout().Query(q.r)
		if want := optLayout.Query(q.r); pred.Pages != want.Pages || pred.Seeks != want.Seeks {
			t.Fatalf("region %v: migrated layout predicts %d pages %d seeks, the optimal layout %d and %d", q.r, pred.Pages, pred.Seeks, want.Pages, want.Seeks)
		}
		if err := dst.Pool().Reset(ctx); err != nil {
			t.Fatal(err)
		}
		var tally PoolTally
		var records int64
		sum := 0.0
		if err := readRegion(WithPoolTally(ctx, &tally), dst, q.r, func(_ int, rec []byte) error {
			sum += decodeF64(rec[:8])
			records++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if pages, seeks := tally.Stats().Misses, tally.Seeks(); pages != pred.Pages || seeks != pred.Seeks {
			t.Errorf("region %v: cold %d pages %d seeks, the DP-optimal layout predicts %d and %d", q.r, pages, seeks, pred.Pages, pred.Seeks)
		}
		obsSeeks += q.p * float64(tally.Seeks())
		wantSum, wantRecords := truthSum(q.r)
		if records != wantRecords || math.Abs(sum-wantSum) > 1e-9*(1+math.Abs(wantSum)) {
			t.Errorf("region %v: %d records sum %v, want %d records sum %v", q.r, records, sum, wantRecords, wantSum)
		}
	}
	if obsSeeks != optSeeks {
		t.Errorf("migrated store observes %v expected seeks, the DP optimum predicts %v", obsSeeks, optSeeks)
	}
}
