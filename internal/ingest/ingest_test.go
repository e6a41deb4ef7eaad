package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/linear"
	"repro/internal/storage"
)

// testOrder returns a small 4×6 row-major order.
func testOrder(t *testing.T) *linear.Order {
	t.Helper()
	s := hierarchy.MustSchema(hierarchy.Uniform("A", 2, 2), hierarchy.Uniform("B", 1, 6))
	o, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// testStore creates a store whose cells hold room for perCell records of
// recLen bytes, pre-filled with seeded records.
func testStore(t *testing.T, o *linear.Order, perCell, filled, recLen int) (*storage.FileStore, string) {
	t.Helper()
	bytesPerCell := make([]int64, o.Len())
	for c := range bytesPerCell {
		bytesPerCell[c] = int64(perCell) * storage.FrameSize(recLen)
	}
	path := filepath.Join(t.TempDir(), "facts.db")
	fs, err := storage.CreateFileStore(path, o, bytesPerCell, 256, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	for c := 0; c < o.Len(); c++ {
		for r := 0; r < filled; r++ {
			if err := fs.PutRecord(c, []byte(baseRec(c, r, recLen))); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fs, path
}

func baseRec(cell, r, n int) string {
	s := fmt.Sprintf("b%03d-%02d", cell, r)
	for len(s) < n {
		s += "."
	}
	return s[:n]
}

func deltaRec(cell, r, n int) string {
	s := fmt.Sprintf("d%03d-%02d", cell, r)
	for len(s) < n {
		s += "."
	}
	return s[:n]
}

func readCell(t *testing.T, fs *storage.FileStore, cell int) []string {
	t.Helper()
	var got []string
	if err := fs.ReadCellCtx(context.Background(), cell, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func TestLogRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facts.db.delta")
	l, err := Open(path, 3, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	want := map[int][]byte{}
	for cell := 0; cell < 7; cell++ {
		// Two puts per cell: the second must win.
		stale := storage.FrameRecords([]byte(fmt.Sprintf("old-%d", cell)))
		fresh := storage.FrameRecords([]byte(fmt.Sprintf("new-%d", cell)), []byte("tail"))
		if err := l.Put(cell, stale); err != nil {
			t.Fatal(err)
		}
		if err := l.Put(cell, fresh); err != nil {
			t.Fatal(err)
		}
		want[cell] = fresh
	}
	check := func(l *Log, stage string) {
		t.Helper()
		if n := l.PendingCells(); n != len(want) {
			t.Fatalf("%s: %d pending cells, want %d", stage, n, len(want))
		}
		for cell, framed := range want {
			got, ok := l.Get(cell)
			if !ok || !bytes.Equal(got, framed) {
				t.Fatalf("%s: Get(%d) = %q, %v; want %q", stage, cell, got, ok, framed)
			}
		}
		if _, ok := l.Get(99); ok {
			t.Fatalf("%s: Get(99) hit on a cell never put", stage)
		}
	}
	check(l, "live")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, 3, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	check(l2, "replayed")
	// Wrong generation must be rejected, not silently replayed.
	l2.Close()
	if _, err := Open(path, 4, Options{}); err == nil {
		t.Fatal("Open with mismatched generation succeeded")
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facts.db.delta")
	l, err := Open(path, 1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	good := storage.FrameRecords([]byte("survives"))
	if err := l.Put(5, good); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-append: half a record's worth of garbage.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 200, 1, 0, 0, 'x', 'y'}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	sizeBefore := fileSize(t, path)
	l2, err := Open(path, 1, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got, ok := l2.Get(5); !ok || !bytes.Equal(got, good) {
		t.Fatalf("after torn tail, Get(5) = %q, %v; want %q", got, ok, good)
	}
	if l2.PendingCells() != 1 {
		t.Fatalf("pending cells = %d, want 1", l2.PendingCells())
	}
	if sz := fileSize(t, path); sz >= sizeBefore {
		t.Fatalf("torn tail not truncated: size %d, was %d", sz, sizeBefore)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

func TestLogCheckpointKeepsNewerPuts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facts.db.delta")
	l, err := Open(path, 1, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	a := storage.FrameRecords([]byte("a"))
	b := storage.FrameRecords([]byte("b"))
	c := storage.FrameRecords([]byte("c"))
	if err := l.Put(1, a); err != nil {
		t.Fatal(err)
	}
	if err := l.Put(2, b); err != nil {
		t.Fatal(err)
	}
	snap := l.SnapshotPending()
	applied := make(map[int]uint64, len(snap))
	for _, p := range snap {
		applied[p.Cell] = p.Seq
	}
	// A put racing the compactor's apply phase: newer seq, must survive.
	if err := l.Put(2, c); err != nil {
		t.Fatal(err)
	}
	if err := l.Checkpoint(applied); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Get(1); ok {
		t.Fatal("checkpoint kept an applied entry")
	}
	if got, ok := l.Get(2); !ok || !bytes.Equal(got, c) {
		t.Fatalf("checkpoint dropped a newer put: Get(2) = %q, %v", got, ok)
	}
	// The survivor must also survive a crash + replay.
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := Open(path, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got, ok := l2.Get(2); !ok || !bytes.Equal(got, c) {
		t.Fatalf("replay after checkpoint: Get(2) = %q, %v; want %q", got, ok, c)
	}
	if l2.PendingCells() != 1 {
		t.Fatalf("pending cells after replay = %d, want 1", l2.PendingCells())
	}
}

func TestLogBacklog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "facts.db.delta")
	l, err := Open(path, 1, Options{Policy: SyncNone, MaxPendingBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	small := storage.FrameRecords([]byte("fits"))
	if err := l.Put(1, small); err != nil {
		t.Fatal(err)
	}
	big := storage.FrameRecords(bytes.Repeat([]byte{7}, 80))
	if err := l.Put(2, big); !errors.Is(err, ErrBacklog) {
		t.Fatalf("oversized put: err = %v, want ErrBacklog", err)
	}
	// Replacing a cell's payload counts only the delta against the budget.
	if err := l.Put(1, storage.FrameRecords([]byte("also"))); err != nil {
		t.Fatalf("same-size replacement rejected: %v", err)
	}
}

func TestCompactorDrainsWorstFirst(t *testing.T) {
	o := testOrder(t)
	fs, path := testStore(t, o, 4, 2, 11)
	log, err := Open(DeltaPath(path), 0, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	fs.SetOverlay(log.Overlay())

	// Cells 0..5 share region 0 (RegionCells=8 below groups positions 0-7);
	// give region 1 (positions 8-15) more delta mass so it drains first.
	want := map[int][]string{}
	put := func(cell, n int) {
		t.Helper()
		var recs [][]byte
		want[cell] = nil
		for r := 0; r < n; r++ {
			rec := deltaRec(cell, r, 11)
			recs = append(recs, []byte(rec))
			want[cell] = append(want[cell], rec)
		}
		framed := storage.FrameRecords(recs...)
		if err := log.Put(cell, framed); err != nil {
			t.Fatal(err)
		}
	}
	put(2, 1)  // region 0: light
	put(9, 4)  // region 1: heavy
	put(10, 4) // region 1: heavy
	put(17, 2) // region 2: medium

	// Merge-on-read sees the overlay before any compaction.
	if got := readCell(t, fs, 9); len(got) != 4 || got[0] != deltaRec(9, 0, 11) {
		t.Fatalf("overlay read of cell 9 = %v", got)
	}

	comp := NewCompactor(CompactorConfig{RegionCells: 8, MaxBytesPerTick: 1})
	ctx := context.Background()
	// Budget of 1 byte: each tick still makes ≥1 region of progress, so the
	// heaviest region drains first and the backlog empties in 3 ticks.
	st1, err := comp.Tick(ctx, fs, log)
	if err != nil {
		t.Fatal(err)
	}
	if st1.CellsApplied != 2 || st1.Regions != 1 {
		t.Fatalf("tick 1 applied %d cells over %d regions, want heaviest region (2 cells)", st1.CellsApplied, st1.Regions)
	}
	if _, ok := log.Get(9); ok {
		t.Fatal("cell 9 still pending after the tick that applied its region")
	}
	if _, ok := log.Get(2); !ok {
		t.Fatal("light region drained before heavy one")
	}
	for i := 0; i < 4; i++ {
		st, err := comp.Tick(ctx, fs, log)
		if err != nil {
			t.Fatal(err)
		}
		if st.PendingCells == 0 && st.CellsApplied == 0 {
			break
		}
		_ = i
	}
	if n := log.PendingCells(); n != 0 {
		t.Fatalf("%d cells still pending after drain", n)
	}
	// Post-compaction reads come from the base file and match the deltas.
	for cell, recs := range want {
		if got := readCell(t, fs, cell); len(got) != len(recs) || got[0] != recs[0] {
			t.Fatalf("cell %d after compaction = %v, want %v", cell, got, recs)
		}
	}
	// Untouched cells keep their seeded base records.
	if got := readCell(t, fs, 0); len(got) != 2 || got[0] != baseRec(0, 0, 11) {
		t.Fatalf("untouched cell 0 = %v", got)
	}
	ticks, cells, _ := comp.Ticks()
	if ticks < 3 || cells != 4 {
		t.Fatalf("ticks=%d cells=%d, want ≥3 ticks draining 4 cells", ticks, cells)
	}
}

// TestCompactorLeavesOversizeCellPending: a pending cell larger than the
// extent the base file reserved for it is not folded and does not stop the
// tick — it stays in the log, reads keep getting it from the overlay, and
// the cells that fit are applied and checkpointed around it.
func TestCompactorLeavesOversizeCellPending(t *testing.T) {
	o := testOrder(t)
	fs, path := testStore(t, o, 2, 2, 11)
	log, err := Open(DeltaPath(path), 0, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	fs.SetOverlay(log.Overlay())
	big := []byte(deltaRec(3, 0, 40))
	if err := log.Put(3, storage.FrameRecords(big)); err != nil {
		t.Fatal(err)
	}
	if err := log.Put(4, storage.FrameRecords([]byte(deltaRec(4, 0, 11)))); err != nil {
		t.Fatal(err)
	}
	comp := NewCompactor(CompactorConfig{})
	for tick := 0; tick < 2; tick++ {
		st, err := comp.Tick(context.Background(), fs, log)
		if err != nil {
			t.Fatal(err)
		}
		if st.Oversize != 1 || st.CellsApplied != 1-tick || st.PendingCells != 1 {
			t.Fatalf("tick %d: %+v, want the oversize cell skipped and the other applied once", tick, st)
		}
	}
	if _, ok := log.Get(4); ok {
		t.Error("the cell that fits is still pending")
	}
	if got := readCell(t, fs, 3); len(got) != 1 || got[0] != string(big) {
		t.Errorf("oversize cell reads %v, want its pending record from the overlay", got)
	}
	if got := readCell(t, fs, 4); len(got) != 1 || got[0] != deltaRec(4, 0, 11) {
		t.Errorf("cell 4 after compaction = %v", got)
	}
}

func TestRecoverReplaysPending(t *testing.T) {
	o := testOrder(t)
	fs, path := testStore(t, o, 4, 2, 11)
	log, err := Open(DeltaPath(path), 0, Options{Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	framed := storage.FrameRecords([]byte(deltaRec(7, 0, 11)))
	if err := log.Put(7, framed); err != nil {
		t.Fatal(err)
	}
	applied, n, err := Recover(context.Background(), fs, log)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("recovered %d entries, want 1", n)
	}
	if err := log.Checkpoint(applied); err != nil {
		t.Fatal(err)
	}
	if log.PendingCells() != 0 {
		t.Fatal("log not empty after recovery checkpoint")
	}
	if got := readCell(t, fs, 7); len(got) != 1 || got[0] != deltaRec(7, 0, 11) {
		t.Fatalf("cell 7 after recovery = %v", got)
	}
	// Recovery is idempotent: a second replay of the same entry (as after a
	// crash between apply and checkpoint) leaves identical content.
	if err := log.Put(7, framed); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(context.Background(), fs, log); err != nil {
		t.Fatal(err)
	}
	if got := readCell(t, fs, 7); len(got) != 1 || got[0] != deltaRec(7, 0, 11) {
		t.Fatalf("cell 7 after double recovery = %v", got)
	}
}

// TestCompactorTicksBesideConcurrentReads is the mixed-load gate: readers
// scan the whole grid while a writer flips cells between two same-shape
// versions through the log and a compactor folds the backlog in ticks of
// one small region. Every read sees each cell whole — both records, one
// version, never a torn mix of overlay and base. No tick folds more than
// its region, the drain leaves the last version of every cell in the base
// file, the store scrubs clean, and cold reads reconcile exactly with the
// analytic model again.
func TestCompactorTicksBesideConcurrentReads(t *testing.T) {
	o := testOrder(t)
	fs, path := testStore(t, o, 2, 0, 11)
	version := func(v, cell int) [][]byte {
		return [][]byte{[]byte(deltaRec(cell, 10*v, 11)), []byte(deltaRec(cell, 10*v+1, 11))}
	}
	for c := 0; c < o.Len(); c++ {
		for _, rec := range version(0, c) {
			if err := fs.PutRecord(c, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	log, err := Open(DeltaPath(path), 0, Options{Policy: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	fs.SetOverlay(log.Overlay())
	ctx := context.Background()
	full := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}

	const regionCells = 4
	comp := NewCompactor(CompactorConfig{RegionCells: regionCells, MaxBytesPerTick: 1})
	var tickMu sync.Mutex
	tick := func() (TickStats, error) {
		tickMu.Lock()
		defer tickMu.Unlock()
		st, err := comp.Tick(ctx, fs, log)
		if err == nil && st.CellsApplied > regionCells {
			err = fmt.Errorf("a tick folded %d cells, more than its %d-cell region", st.CellsApplied, regionCells)
		}
		return st, err
	}

	stop := make(chan struct{})
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // compactor
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := tick(); err != nil {
				errs <- err
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		go func() { // reader
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				cells := map[int][]string{}
				p, err := fs.Plan(ctx, full)
				if err == nil {
					err = fs.ReadPlanCtx(ctx, p, func(cell int, rec []byte) error {
						cells[cell] = append(cells[cell], string(rec))
						return nil
					})
				}
				if err != nil {
					errs <- err
					return
				}
				for c := 0; c < o.Len(); c++ {
					got := strings.Join(cells[c], " ")
					if got != strings.Join([]string{deltaRec(c, 0, 11), deltaRec(c, 1, 11)}, " ") &&
						got != strings.Join([]string{deltaRec(c, 10, 11), deltaRec(c, 11, 11)}, " ") {
						errs <- fmt.Errorf("cell %d read as %q: not one whole version", c, got)
						return
					}
				}
			}
		}()
	}
	last := make([]int, o.Len())
	for i := 0; i < 20*o.Len(); i++ {
		c := (7 * i) % o.Len()
		last[c] = 1 - last[c]
		if err := log.Put(c, storage.FrameRecords(version(last[c], c)...)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for log.PendingCells() > 0 {
		if _, err := tick(); err != nil {
			t.Fatal(err)
		}
	}
	fs.SetOverlay(nil)
	for c := 0; c < o.Len(); c++ {
		want := version(last[c], c)
		if got := readCell(t, fs, c); len(got) != 2 || got[0] != string(want[0]) || got[1] != string(want[1]) {
			t.Fatalf("cell %d after the drain = %v, want its last version %q", c, got, want)
		}
	}
	if rep, err := fs.Verify(); err != nil || !rep.OK() {
		t.Fatalf("scrub after the drain: %v, %v", err, rep.Err())
	}
	for _, r := range []linear.Region{full, {{Lo: 1, Hi: 2}, {Lo: 0, Hi: 6}}, {{Lo: 0, Hi: 4}, {Lo: 2, Hi: 3}}} {
		if err := fs.Pool().Reset(ctx); err != nil {
			t.Fatal(err)
		}
		pred := fs.Layout().Query(r)
		var tally storage.PoolTally
		tctx := storage.WithPoolTally(ctx, &tally)
		p, err := fs.Plan(tctx, r)
		if err == nil {
			err = fs.ReadPlanCtx(tctx, p, func(int, []byte) error { return nil })
		}
		if err != nil {
			t.Fatal(err)
		}
		if tally.Stats().Misses != pred.Pages || tally.Seeks() != pred.Seeks {
			t.Errorf("region %v after the drain: cold %d pages %d seeks, model predicts %d and %d",
				r, tally.Stats().Misses, tally.Seeks(), pred.Pages, pred.Seeks)
		}
	}
}
