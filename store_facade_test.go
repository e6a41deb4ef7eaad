package snakes

import (
	"context"
	"encoding/binary"
	"math"
	"path/filepath"
	"testing"
)

func TestEstimatorFacade(t *testing.T) {
	s := exampleSchema()
	e := s.NewEstimator()
	for i := 0; i < 9; i++ {
		if err := e.Observe(Class{0, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Observe(Class{2, 2}); err != nil {
		t.Fatal(err)
	}
	if e.Total() != 10 {
		t.Errorf("Total = %d", e.Total())
	}
	w, err := e.Workload(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Prob(Class{0, 2}); math.Abs(got-0.9) > 1e-12 {
		t.Errorf("Prob = %v, want 0.9", got)
	}
	// The learned workload drives optimization directly.
	st, err := Optimize(w)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Path.Contains(Class{0, 2}) {
		t.Errorf("optimal path %v should pass through the dominant class", st.Path)
	}
}

func TestStoreFacadeEndToEnd(t *testing.T) {
	s := exampleSchema()
	w := s.ClassWorkload(Class{0, 2})
	st, err := Optimize(w)
	if err != nil {
		t.Fatal(err)
	}
	// One 8-byte measure per cell.
	bytes := make([]int64, s.NumCells())
	for i := range bytes {
		bytes[i] = FrameSize(8)
	}
	store, err := st.CreateFileStore(filepath.Join(t.TempDir(), "facts.db"), bytes, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	buf := make([]byte, 8)
	for c := 0; c < s.NumCells(); c++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(c)))
		if err := PutRecord(store, c, buf); err != nil {
			t.Fatal(err)
		}
	}
	all := Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}
	if err := store.Pool().Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	var tally PoolTally
	total, err := sumFloat64s(WithPoolTally(context.Background(), &tally), store, all)
	if err != nil {
		t.Fatal(err)
	}
	if want := float64(15 * 16 / 2); total != want {
		t.Errorf("Sum = %v, want %v", total, want)
	}
	if predicted := store.Layout().Query(all).Seeks; predicted != 1 || tally.Seeks() != 1 {
		t.Errorf("full scan: %d seeks predicted, %d observed, want 1 and 1", predicted, tally.Seeks())
	}
}

// sumFloat64s plans r and totals its float64 records in the caller's own
// accumulator.
func sumFloat64s(ctx context.Context, fs *FileStore, r Region) (float64, error) {
	plan, err := fs.Plan(ctx, r)
	if err != nil {
		return 0, err
	}
	total := 0.0
	err = fs.ReadPlanCellsCtx(ctx, plan, Records(func(_ int, rec []byte) error {
		total += math.Float64frombits(binary.LittleEndian.Uint64(rec))
		return nil
	}))
	return total, err
}
