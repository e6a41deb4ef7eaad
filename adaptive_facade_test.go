package snakes_test

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"testing"

	snakes "repro"
)

// adaptiveSchema is the 4x4 warehouse the adaptive tests share: class
// {0,2} is a single x-row, class {2,0} a single y-column, and their
// optimal linearizations are opposite nestings.
func adaptiveSchema() *snakes.Schema {
	return snakes.NewSchema(snakes.Dim("x", 2, 2), snakes.Dim("y", 2, 2))
}

func TestClassOfRegion(t *testing.T) {
	s := adaptiveSchema()
	cases := []struct {
		r    snakes.Region
		want snakes.Class
	}{
		{snakes.Region{{Lo: 1, Hi: 2}, {Lo: 0, Hi: 4}}, snakes.Class{0, 2}},
		{snakes.Region{{Lo: 0, Hi: 4}, {Lo: 3, Hi: 4}}, snakes.Class{2, 0}},
		{snakes.Region{{Lo: 2, Hi: 4}, {Lo: 0, Hi: 2}}, snakes.Class{1, 1}},
		{snakes.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}, snakes.Class{2, 2}},
		{snakes.Region{{Lo: 3, Hi: 4}, {Lo: 2, Hi: 3}}, snakes.Class{0, 0}},
		// Unaligned range [1,3) straddles the level-1 blocks: attributed
		// to the smallest enclosing node, the whole dimension.
		{snakes.Region{{Lo: 1, Hi: 3}, {Lo: 0, Hi: 1}}, snakes.Class{2, 0}},
	}
	for _, c := range cases {
		got, err := s.ClassOfRegion(c.r)
		if err != nil {
			t.Fatalf("ClassOfRegion(%v): %v", c.r, err)
		}
		if !got.Equal(c.want) {
			t.Errorf("ClassOfRegion(%v) = %v, want %v", c.r, got, c.want)
		}
	}
	for _, bad := range []snakes.Region{
		{{Lo: 0, Hi: 4}},                  // wrong dimension count
		{{Lo: 0, Hi: 5}, {Lo: 0, Hi: 4}},  // out of range
		{{Lo: 2, Hi: 2}, {Lo: 0, Hi: 4}},  // empty
		{{Lo: -1, Hi: 2}, {Lo: 0, Hi: 4}}, // negative
	} {
		if _, err := s.ClassOfRegion(bad); err == nil {
			t.Errorf("ClassOfRegion(%v) should fail", bad)
		}
	}
}

func TestDecayingEstimatorFacade(t *testing.T) {
	s := adaptiveSchema()
	e, err := s.NewDecayingEstimator(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := e.Observe(snakes.Class{0, 2}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Decay(0.5); err != nil {
		t.Fatal(err)
	}
	if got := e.Weight(); math.Abs(got-4) > 1e-12 {
		t.Errorf("Weight = %v, want 4", got)
	}
	if e.Total() != 8 {
		t.Errorf("Total = %d, want 8", e.Total())
	}
	w, err := e.Workload(0)
	if err != nil {
		t.Fatal(err)
	}
	if got := w.Prob(snakes.Class{0, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("P({0,2}) = %v, want 1", got)
	}
	drifted, _, err := e.Drifted(w, 0, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if drifted {
		t.Error("estimate drifted from itself")
	}
}

// TestReorganizerEndToEnd drives the whole facade loop against a real file
// store: serve row queries, shift to column queries, let the reorganizer
// migrate onto the column-optimal order, and check the physical seeks drop
// to the analytic optimum.
func TestReorganizerEndToEnd(t *testing.T) {
	s := adaptiveSchema()
	wA := s.ClassWorkload(snakes.Class{0, 2})
	stA, err := snakes.Optimize(wA)
	if err != nil {
		t.Fatal(err)
	}

	bytes := make([]int64, s.NumCells())
	for i := range bytes {
		bytes[i] = snakes.FrameSize(8)
	}
	dir := t.TempDir()
	fs, err := stA.CreateFileStore(filepath.Join(dir, "g0.db"), bytes, 32, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for c := 0; c < s.NumCells(); c++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(c)))
		if err := snakes.PutRecord(fs, c, buf); err != nil {
			t.Fatal(err)
		}
	}

	// The caller's mechanism mirrors the daemon's in miniature: migrate,
	// swap the local store variable, close the old generation, Finish.
	migrate := func(ctx context.Context, d *snakes.ReorgDecision) error {
		newPath := filepath.Join(dir, "g1.db")
		dst, err := d.Strategy.MigrateCtx(ctx, fs, newPath, 8)
		if err != nil {
			return err
		}
		old := fs
		fs = dst
		return old.Close()
	}
	cfg := snakes.ReorgConfig{
		Smoothing:       0.01,
		MinWeight:       1,
		RegretThreshold: 1.05,
		Hysteresis:      2,
	}
	r, err := snakes.NewReorganizer(stA, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}

	colRegion := snakes.Region{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 2}}
	for i := 0; i < 200; i++ {
		if err := r.ObserveRegion(colRegion); err != nil {
			t.Fatal(err)
		}
	}
	var d *snakes.ReorgDecision
	for i := 0; i < 3; i++ {
		if d, err = r.Trigger(context.Background(), false); err == nil {
			break
		}
		if !snakes.ReorgSkipped(err) {
			t.Fatal(err)
		}
	}
	if err != nil {
		t.Fatalf("reorganizer never fired: %v", err)
	}
	if _, err := r.Trigger(context.Background(), true); !errors.Is(err, snakes.ErrReorgInProgress) {
		t.Fatalf("trigger while a decision runs = %v, want ErrReorgInProgress", err)
	}
	err = migrate(context.Background(), d)
	r.Finish(d, err)
	if err != nil {
		t.Fatal(err)
	}
	if d.Generation != 1 || r.Generation() != 1 {
		t.Fatalf("generation after reorg: decision %d, reorganizer %d", d.Generation, r.Generation())
	}
	if d.Regret <= 1.05 {
		t.Errorf("acted at regret %v, below threshold", d.Regret)
	}

	// Reopen the new generation cold (migration wrote through its pool),
	// then check the physical seeks of a column query match the new
	// strategy's analytic prediction, beating the old strategy's.
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err = d.Strategy.OpenFileStore(filepath.Join(dir, "g1.db"), bytes, 32, 8, loaded)
	if err != nil {
		t.Fatal(err)
	}
	pred := fs.Layout().Query(colRegion)
	var tally snakes.PoolTally
	ctx := snakes.WithPoolTally(context.Background(), &tally)
	sum := 0.0
	plan, err := fs.Plan(ctx, colRegion)
	if err != nil {
		t.Fatal(err)
	}
	err = fs.ReadPlanCellsCtx(ctx, plan, snakes.Records(func(cell int, rec []byte) error {
		sum += math.Float64frombits(binary.LittleEndian.Uint64(rec[:8]))
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if got := tally.Seeks(); got != pred.Seeks {
		t.Errorf("observed seeks = %d, predicted %d", got, pred.Seeks)
	}
	oldLayout, err := stA.Pack(bytes, 32)
	if err != nil {
		t.Fatal(err)
	}
	oldPred := oldLayout.Query(colRegion)
	if pred.Seeks >= oldPred.Seeks {
		t.Errorf("new layout seeks %d not better than old %d", pred.Seeks, oldPred.Seeks)
	}

	// The store still holds every record.
	all := snakes.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}
	total := 0.0
	if plan, err = fs.Plan(context.Background(), all); err != nil {
		t.Fatal(err)
	}
	err = fs.ReadPlanCellsCtx(context.Background(), plan, snakes.Records(func(_ int, rec []byte) error {
		total += math.Float64frombits(binary.LittleEndian.Uint64(rec[:8]))
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if want := 120.0; total != want {
		t.Errorf("post-migration sum = %v, want %v", total, want)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReorganizerFailedMigrationKeepsOldStrategy(t *testing.T) {
	s := adaptiveSchema()
	wA := s.ClassWorkload(snakes.Class{0, 2})
	stA, err := snakes.Optimize(wA)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	cfg := snakes.ReorgConfig{
		Smoothing:       0.01,
		MinWeight:       1,
		RegretThreshold: 1.05,
		Hysteresis:      1,
	}
	r, err := snakes.NewReorganizer(stA, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := r.Observe(snakes.Class{2, 0}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := r.Trigger(context.Background(), false)
	if err != nil {
		t.Fatalf("trigger: %v", err)
	}
	r.Finish(d, boom)
	st := r.Status()
	if st.Generation != 0 || st.Failures != 1 || st.LastOutcome != "failed" {
		t.Errorf("failure status = %+v", st)
	}
	if !r.Strategy().Path.Equal(stA.Path) {
		t.Error("failed migration changed the deployed strategy")
	}
}
