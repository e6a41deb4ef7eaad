package chaos

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/linear"
	"repro/internal/storage"
)

// chaosOrder returns the 4×6 row-major order shared by the chaos tests.
func chaosOrder(t *testing.T) *linear.Order {
	t.Helper()
	s := hierarchy.MustSchema(hierarchy.Uniform("A", 2, 2), hierarchy.Uniform("B", 1, 6))
	o, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// chaosFixture builds a loaded store with a parity sidecar and returns it
// with its path and the ground-truth records per cell.
func chaosFixture(t *testing.T, pageSize, group int) (*storage.FileStore, string, map[int][]string) {
	t.Helper()
	o := chaosOrder(t)
	bytesPerCell := make([]int64, o.Len())
	for c := range bytesPerCell {
		bytesPerCell[c] = 4 * storage.FrameSize(11)
	}
	path := filepath.Join(t.TempDir(), "facts.db")
	fs, err := storage.CreateFileStore(path, o, bytesPerCell, pageSize, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	truth := make(map[int][]string)
	for c := 0; c < o.Len(); c++ {
		for r := 0; r < 4; r++ {
			rec := fmt.Sprintf("cell%03d-r%02d", c, r)
			if err := fs.PutRecord(c, []byte(rec)); err != nil {
				t.Fatal(err)
			}
			truth[c] = append(truth[c], rec)
		}
	}
	if err := fs.WriteParity(storage.ParityPath(path), group); err != nil {
		t.Fatal(err)
	}
	return fs, path, truth
}

// scan plans r and reads its records.
func scan(fs *storage.FileStore, r linear.Region, fn func(cell int, record []byte) error) error {
	ctx := context.Background()
	p, err := fs.Plan(ctx, r)
	if err != nil {
		return err
	}
	return fs.ReadPlanCtx(ctx, p, fn)
}

func assertTruth(t *testing.T, fs *storage.FileStore, truth map[int][]string) {
	t.Helper()
	got := make(map[int][]string)
	full := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}
	if err := scan(fs, full, func(cell int, record []byte) error {
		got[cell] = append(got[cell], string(record))
		return nil
	}); err != nil {
		t.Fatalf("ground-truth scan: %v", err)
	}
	for c, want := range truth {
		if !reflect.DeepEqual(got[c], want) {
			t.Errorf("cell %d = %v, want %v", c, got[c], want)
		}
	}
}

// TestPlanDeterminism: the schedule is a pure function of its inputs —
// byte-identical across runs for the same seed, different across seeds.
func TestPlanDeterminism(t *testing.T) {
	a := Plan(42, 8, 96, 64)
	b := Plan(42, 8, 96, 64)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
	c := Plan(43, 8, 96, 64)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Fatal("seeds 42 and 43 drew identical schedules")
	}
	ra := PlanRepairable(7, 5, 96, 8, 64)
	rb := PlanRepairable(7, 5, 96, 8, 64)
	if !reflect.DeepEqual(ra, rb) {
		t.Fatalf("PlanRepairable same seed diverged:\n%+v\n%+v", ra, rb)
	}
}

// TestPlanRepairableOneFaultPerGroup: every event lands on a distinct
// parity group, within the store, with bits inside the page.
func TestPlanRepairableOneFaultPerGroup(t *testing.T) {
	const totalPages, group, pageSize = 96, 8, 64
	for seed := int64(0); seed < 20; seed++ {
		s := PlanRepairable(seed, 12, totalPages, group, pageSize)
		if len(s.Events) != 12 {
			t.Fatalf("seed %d: %d events, want 12 (12 groups available)", seed, len(s.Events))
		}
		seen := make(map[int64]bool)
		for _, e := range s.Events {
			if e.Page < 0 || e.Page >= totalPages {
				t.Fatalf("seed %d: page %d out of range", seed, e.Page)
			}
			g := e.Page / group
			if seen[g] {
				t.Fatalf("seed %d: two faults in parity group %d", seed, g)
			}
			seen[g] = true
			if e.Kind == BitFlip && (e.Bit < 0 || e.Bit >= pageSize*8) {
				t.Fatalf("seed %d: bit %d out of range", seed, e.Bit)
			}
		}
	}
}

// TestScheduleRepairRoundTrip: a repairable schedule corrupts every
// targeted page detectably, one repair sweep converges to a clean scrub,
// and the data comes back byte-exact.
func TestScheduleRepairRoundTrip(t *testing.T) {
	const pageSize, group = 64, 4
	fs, path, truth := chaosFixture(t, pageSize, group)
	total := fs.Layout().TotalPages()
	for seed := int64(1); seed <= 5; seed++ {
		sched := PlanRepairable(seed, int(total), total, group, pageSize)
		if err := sched.Apply(path); err != nil {
			t.Fatal(err)
		}
		for _, e := range sched.Events {
			// A window's page problems come first, in page order: a damaged
			// first page is the first problem of a window starting on it.
			rep, err := fs.ScrubRange(context.Background(), storage.ScrubCursor{Page: e.Page}, e.Page+1, false)
			if err != nil || len(rep.Problems) == 0 || rep.Problems[0].Page != e.Page || !errors.Is(rep.Problems[0].Err, storage.ErrCorruptPage) {
				t.Fatalf("seed %d: %s left page clean (one-page scrub = %v, %v)", seed, e, rep, err)
			}
		}
		rep, err := fs.RepairCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() || len(rep.Repaired) < len(sched.Events) {
			t.Fatalf("seed %d: sweep = %+v, want all %d faults repaired", seed, rep, len(sched.Events))
		}
		vrep, err := fs.Verify()
		if err != nil {
			t.Fatal(err)
		}
		if !vrep.OK() {
			t.Fatalf("seed %d: post-repair scrub: %v", seed, vrep.Err())
		}
		assertTruth(t, fs, truth)
	}
}

// stormFixture reopens a built store through a FaultInjector carrying the
// given schedule, so reads hit the storm. The retry policy covers one
// physical read; on the 2-frame pool a read loads one page (a window of
// 1), so every operation of the storm meets the retry budget on its own.
func stormFixture(t *testing.T, faults []storage.Fault) *storage.FileStore {
	t.Helper()
	o := chaosOrder(t)
	bytesPerCell := make([]int64, o.Len())
	for c := range bytesPerCell {
		bytesPerCell[c] = 4 * storage.FrameSize(11)
	}
	path := filepath.Join(t.TempDir(), "facts.db")
	fs, err := storage.CreateFileStore(path, o, bytesPerCell, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < o.Len(); c++ {
		for r := 0; r < 4; r++ {
			if err := fs.PutRecord(c, []byte(fmt.Sprintf("cell%03d-r%02d", c, r))); err != nil {
				t.Fatal(err)
			}
		}
	}
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	pf, err := storage.OpenPageFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	fi := storage.NewFaultInjector(pf, 99, faults...)
	fs2, err := storage.NewFileStoreOn(fi, o, bytesPerCell, 2, loaded)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs2.Close() })
	return fs2
}

// TestStormWithinRetryBudgetRidesOut: transient bursts narrower than the
// pool's retry budget are invisible to readers.
func TestStormWithinRetryBudgetRidesOut(t *testing.T) {
	faults := Storm(3, 12, 3, 2, storage.OpRead)
	if len(faults) != 3 {
		t.Fatalf("storm has %d bursts, want 3", len(faults))
	}
	fs := stormFixture(t, faults)
	full := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}
	n := 0
	if err := scan(fs, full, func(cell int, record []byte) error { n++; return nil }); err != nil {
		t.Fatalf("scan through storm: %v", err)
	}
	if n != 4*24 {
		t.Fatalf("scan through storm returned %d records, want %d", n, 4*24)
	}
}

// TestStormPastRetryBudgetSurfacesTyped: a burst wider than the retry
// budget escapes — as a typed ErrTransient, never a panic or a silent
// wrong answer.
func TestStormPastRetryBudgetSurfacesTyped(t *testing.T) {
	fs := stormFixture(t, Storm(5, 12, 1, 16, storage.OpRead))
	full := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}
	err := scan(fs, full, func(cell int, record []byte) error { return nil })
	if !errors.Is(err, storage.ErrTransient) || !errors.Is(err, storage.ErrInjected) {
		t.Fatalf("scan through wide storm = %v, want typed ErrTransient/ErrInjected", err)
	}
}

// TestCrashPointMidMigrate: cancelling a migration at a scheduled cell
// boundary (the deterministic stand-in for a crash) aborts typed, leaves
// no partial output, and a clean retry succeeds with the data intact.
func TestCrashPointMidMigrate(t *testing.T) {
	fs, _, truth := chaosFixture(t, 64, 4)
	s := hierarchy.MustSchema(hierarchy.Uniform("A", 2, 2), hierarchy.Uniform("B", 1, 6))
	newOrder, err := linear.RowMajor(s, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(t.TempDir(), "migrated.db")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	crashAt := 12 // half of the 24 cells
	m, err := storage.StartMigration(ctx, fs, newPath, newOrder, 8, 0)
	for err == nil && !m.Done() {
		_, err = m.Step(ctx, 1) // one cell a step
		if done, _ := m.Progress(); done == crashAt {
			cancel()
		}
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("migrate with mid-flight crash = %v, want context.Canceled", err)
	}
	if _, statErr := storage.OpenPageFile(newPath, 64); statErr == nil {
		t.Fatal("crashed migration left a partial output file")
	}
	dst, err := storage.MigrateCtx(context.Background(), fs, newPath, newOrder, 8)
	if err != nil {
		t.Fatalf("retry after crash: %v", err)
	}
	defer dst.Close()
	assertTruth(t, dst, truth)
}
