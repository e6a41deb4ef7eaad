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
	"time"

	"repro/internal/hierarchy"
	"repro/internal/linear"
)

func TestMigratePreservesDataAndImprovesLayout(t *testing.T) {
	s := hierarchy.MustSchema(hierarchy.Binary("A", 2), hierarchy.Binary("B", 2))
	rowMajor, err := linear.RowMajor(s, []int{1, 0}) // column-major: bad for row scans
	if err != nil {
		t.Fatal(err)
	}
	bytes := make([]int64, 16)
	for i := range bytes {
		bytes[i] = FrameSize(8)
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
		if err := src.PutRecord(c, buf); err != nil {
			t.Fatal(err)
		}
	}

	better, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	dst, _, err := MigrateCtx(context.Background(), src, filepath.Join(dir, "new.db"), better, 16, MigrateOptions{})
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
		bytes[i] = FrameSize(8)
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
		if err := src.PutRecord(c, buf); err != nil {
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
	if _, _, err := MigrateCtx(context.Background(), src, newPath, better, 4, MigrateOptions{}); err == nil {
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
		bytes[i] = FrameSize(8)
	}
	src, err := CreateFileStore(filepath.Join(dir, "old.db"), colMajor, bytes, 32, 16)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for c := 0; c < 16; c++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(c)))
		if err := src.PutRecord(c, buf); err != nil {
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

// TestMigrateCtxCancelCleansUp cancels the migration from its own progress
// callback, partway through the copy: MigrateCtx must return the context
// error and leave no partial output file behind.
func TestMigrateCtxCancelCleansUp(t *testing.T) {
	dir := t.TempDir()
	src, _, better := newMigrateSource(t, dir)
	defer src.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	newPath := filepath.Join(dir, "new.db")
	var calls int
	_, _, err := MigrateCtx(ctx, src, newPath, better, 4, MigrateOptions{MaxCellsPerTick: 1, Progress: func(done, total int) {
		calls++
		if done == total/2 {
			cancel()
		}
	}})
	if err == nil {
		t.Fatal("cancelled migration should fail")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled migration error is untyped: %v", err)
	}
	if calls >= 16 {
		t.Errorf("progress ran %d times; cancellation should have cut the copy short", calls)
	}
	if _, err := os.Stat(newPath); !os.IsNotExist(err) {
		t.Fatalf("partial migration output %s was not removed (stat err: %v)", newPath, err)
	}
	// A context cancelled before the copy starts must also leave nothing.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, _, err := MigrateCtx(pre, src, newPath, better, 4, MigrateOptions{}); !errors.Is(err, context.Canceled) {
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

// TestMigrateCtxProgress checks the pacing contract: 16 cells at no more
// than 5 a tick take ⌈16/5⌉ ticks with a pause between them, and progress
// runs once per tick with (done, total) pairs ending at (total, total).
func TestMigrateCtxProgress(t *testing.T) {
	dir := t.TempDir()
	src, _, better := newMigrateSource(t, dir)
	defer src.Close()

	var got [][2]int
	dst, ticks, err := MigrateCtx(context.Background(), src, filepath.Join(dir, "new.db"), better, 4, MigrateOptions{
		RegionCells:     4,
		MaxCellsPerTick: 5,
		Pause:           time.Microsecond,
		Progress:        func(done, total int) { got = append(got, [2]int{done, total}) },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	if want := [][2]int{{5, 16}, {10, 16}, {15, 16}, {16, 16}}; ticks != len(want) || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("%d ticks reported %v, want %d reporting %v", ticks, got, len(want), want)
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
	if _, _, err := MigrateCtx(context.Background(), src, filepath.Join(t.TempDir(), "d.db"), o2, 2, MigrateOptions{}); err == nil {
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
			mc.sizes[c] += FrameSize(len(rec))
			recs = append(recs, rec)
		}
		switch pick := rng.Intn(6); {
		case pick == 0: // the overlay rewrites the cell in place
			base[c], mc.truth[c] = sameShape(recs), recs
			overlay[c] = FrameRecords(recs...)
		case pick == 1: // reserved, never written; the overlay fills it
			mc.truth[c] = recs
			overlay[c] = FrameRecords(recs...)
		case pick == 2 && !exact: // partially filled
			base[c], mc.truth[c] = recs[:len(recs)-1], recs[:len(recs)-1]
		case pick == 3 && !exact: // emptied by the overlay
			base[c] = recs
			overlay[c] = FrameRecords()
		default:
			base[c], mc.truth[c] = recs, recs
		}
	}
	mc.src = newTempStore(t, o, mc.sizes, 64)
	for c, recs := range base {
		for _, rec := range recs {
			if err := mc.src.PutRecord(c, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	mc.src.SetOverlay(func(cell int) ([]byte, bool) { b, ok := overlay[cell]; return b, ok })
	return mc
}

// TestMigrateMatchesFreshBuild is the migration differential: on random
// unbalanced hierarchies, between every pair of order kinds, with random
// fills and a random overlay, at every pacing, the migrated store holds in
// every cell exactly the records of a fresh build under the new order from
// the plain cell → records map, scrubs clean, took at least
// ⌈N/MaxCellsPerTick⌉ ticks, and — once exactly filled — answers cold
// reads in the pages and seeks its layout predicts.
func TestMigrateMatchesFreshBuild(t *testing.T) {
	ctx := context.Background()
	cellRecords := func(fs *FileStore, cell int) [][]byte {
		t.Helper()
		var out [][]byte
		if err := fs.ReadCellCtx(ctx, cell, func(rec []byte) error {
			out = append(out, append([]byte(nil), rec...))
			return nil
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
						if err := fresh.PutRecord(c, rec); err != nil {
							t.Fatal(err)
						}
					}
				}
				freshCells := make([]string, n)
				for c := range freshCells {
					freshCells[c] = fmt.Sprintf("%q", cellRecords(fresh, c))
				}
				for _, regionCells := range []int{1, 7, n} {
					for _, perTick := range []int{1, n} {
						label := fmt.Sprintf("seed %d %s -> %s exact=%v RegionCells=%d MaxCellsPerTick=%d", seed, oldOrder.Name, newOrder.Name, exact, regionCells, perTick)
						path := filepath.Join(t.TempDir(), "migrated.db")
						dst, ticks, err := MigrateCtx(ctx, mc.src, path, newOrder, int(fresh.Layout().TotalPages())+8, MigrateOptions{RegionCells: regionCells, MaxCellsPerTick: perTick})
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						if want := (n + perTick - 1) / perTick; ticks < want {
							t.Errorf("%s: %d ticks, want at least %d", label, ticks, want)
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
