package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/linear"
	"repro/internal/rowcodec"
	"repro/internal/trace"
)

// buildParallelStore packs the 8×8 grid with a varied fill: some cells are
// empty, payload sizes differ per record (so records cross page
// boundaries), and every non-empty cell's reservation is exactly filled —
// the precondition for exact predicted == observed reconciliation.
func buildParallelStore(t *testing.T, frames int) (*FileStore, *linear.Order, []int64, string, float64) {
	t.Helper()
	o := concurrentOrder(t)
	n := o.Len()
	sizes := make([]int64, n)
	payloads := make([][][]byte, n)
	total := 0.0
	for c := 0; c < n; c++ {
		k := c % 4 // 0..3 records; every 4th cell empty
		for i := 0; i < k; i++ {
			p := make([]byte, 8+(c*7+i*13)%41)
			v := float64(c*100 + i)
			binary.LittleEndian.PutUint64(p, math.Float64bits(v))
			total += v
			payloads[c] = append(payloads[c], p)
			sizes[c] += rowcodec.FrameSize(len(p))
		}
	}
	path := filepath.Join(t.TempDir(), "par.db")
	fs, err := CreateFileStore(path, o, sizes, 64, frames)
	if err != nil {
		t.Fatal(err)
	}
	for c, ps := range payloads {
		for _, p := range ps {
			if err := rowcodec.PutRecord(fs, c, p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fs, o, sizes, path, total
}

// reopenCold closes fs and reopens the same file with an empty pool.
func reopenCold(t *testing.T, fs *FileStore, path string, o *linear.Order, sizes []int64, frames int) *FileStore {
	t.Helper()
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFileStore(path, o, sizes, 64, frames, loaded)
	if err != nil {
		t.Fatal(err)
	}
	return re
}

func parallelTestRegions() []linear.Region {
	return []linear.Region{
		{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}, // full grid
		{{Lo: 2, Hi: 3}, {Lo: 0, Hi: 8}}, // one row: contiguous
		{{Lo: 0, Hi: 8}, {Lo: 3, Hi: 4}}, // one column: maximally fragmented
		{{Lo: 1, Hi: 6}, {Lo: 2, Hi: 7}}, // interior block
		{{Lo: 5, Hi: 6}, {Lo: 5, Hi: 6}}, // single cell
		{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}}, // single empty cell (cell 0)
	}
}

type readEvent struct {
	cell int
	rec  []byte
}

func collectReads(t *testing.T, read func(fn func(cell int, record []byte) error) error) []readEvent {
	t.Helper()
	var got []readEvent
	if err := read(func(cell int, record []byte) error {
		got = append(got, readEvent{cell, append([]byte(nil), record...)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// windowFrames are pool capacities whose read windows (spanWindow) are 1,
// 2, 4 and MaxSpanPages pages.
var windowFrames = []int{2, 4, 8, 2 * MaxSpanPages}

// TestParallelReadMatchesSequential: for every region, a read in wide span
// windows delivers the exact record sequence and sum a read one page at a
// time does — same cells, same order, same bytes.
func TestParallelReadMatchesSequential(t *testing.T) {
	ctx := context.Background()
	stores := make([]*FileStore, len(windowFrames))
	for i, frames := range windowFrames {
		stores[i], _, _, _, _ = buildParallelStore(t, frames)
		defer stores[i].Close()
	}
	for _, r := range parallelTestRegions() {
		want := collectReads(t, func(fn func(int, []byte) error) error {
			return readRegion(ctx, stores[0], r, fn)
		})
		wantSum, _, err := sumRegion(ctx, stores[0], r, decodeF64)
		if err != nil {
			t.Fatal(err)
		}
		for i, fs := range stores[1:] {
			window := fs.spanWindow()
			if want := windowFrames[i+1] / 2; window != want {
				t.Fatalf("%d frames: window %d, want %d", windowFrames[i+1], window, want)
			}
			got := collectReads(t, func(fn func(int, []byte) error) error {
				return readRegion(ctx, fs, r, fn)
			})
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("region %v window %d: records %v, window 1 %v", r, window, got, want)
			}
			gotSum, _, err := sumRegion(ctx, fs, r, decodeF64)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(gotSum) != math.Float64bits(wantSum) {
				t.Errorf("region %v window %d: sum %v, window 1 %v", r, window, gotSum, wantSum)
			}
		}
	}
}

// goid is the calling goroutine's id, read off its stack header.
func goid() string {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	return string(f[1])
}

// TestParallelismOneIsSequentialPath: every read runs on the caller's
// goroutine — fn is called there and nowhere else, whatever the window —
// and a cold read costs the analytic pages and seeks on every window.
func TestParallelismOneIsSequentialPath(t *testing.T) {
	fs, o, sizes, path, _ := buildParallelStore(t, 128)
	r := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}
	pred := fs.Layout().Query(r)
	caller := goid()
	for _, frames := range windowFrames {
		fs = reopenCold(t, fs, path, o, sizes, frames)
		var tally PoolTally
		err := readRegion(WithPoolTally(context.Background(), &tally), fs, r, func(int, []byte) error {
			if id := goid(); id != caller {
				return fmt.Errorf("fn ran on goroutine %s, the caller is %s", id, caller)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("window %d: %v", fs.spanWindow(), err)
		}
		if got := tally.Stats().Misses; got != pred.Pages || tally.Seeks() != pred.Seeks {
			t.Errorf("window %d: cold %d pages %d seeks, analytic %d pages %d seeks", fs.spanWindow(), got, tally.Seeks(), pred.Pages, pred.Seeks)
		}
	}
	fs.Close()
}

// TestParallelRunsMatchAnalyticModel: the plan's seek runs
// are page-disjoint (separated by at least one full page) and — on an
// exactly-filled store — equal the analytic model's merged page ranges:
// one run per predicted seek, summing to the predicted page count.
func TestParallelRunsMatchAnalyticModel(t *testing.T) {
	fs, _, _, _, _ := buildParallelStore(t, 128)
	defer fs.Close()
	rng := rand.New(rand.NewSource(7))
	regions := parallelTestRegions()
	for trial := 0; trial < 40; trial++ {
		r := make(linear.Region, 2)
		for d := 0; d < 2; d++ {
			lo := rng.Intn(8)
			r[d] = linear.Range{Lo: lo, Hi: lo + 1 + rng.Intn(8-lo)}
		}
		regions = append(regions, r)
	}
	for _, r := range regions {
		p, err := fs.Plan(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		pred := fs.Layout().Query(r)
		if p.Stats != pred {
			t.Errorf("region %v: plan stats %+v, Layout.Query %+v", r, p.Stats, pred)
		}
		var runs []planRun
		for _, run := range p.runs {
			if run.pageHi < run.pageLo { // only base-empty cells: kept for overlay probes
				if run.cells != 0 {
					t.Fatalf("region %v: pageless run with %d filled cells", r, run.cells)
				}
				continue
			}
			runs = append(runs, run)
		}
		if int64(len(runs)) != pred.Seeks {
			t.Errorf("region %v: %d runs, analytic predicts %d seeks", r, len(runs), pred.Seeks)
		}
		var pages int64
		for i := range runs {
			if runs[i].cells == 0 || runs[i].fragHi <= runs[i].fragLo {
				t.Fatalf("region %v: malformed run %+v", r, runs[i])
			}
			if i > 0 && runs[i].pageLo <= runs[i-1].pageHi+1 {
				t.Errorf("region %v: runs %d and %d are not page-disjoint: [%d,%d] then [%d,%d]",
					r, i-1, i, runs[i-1].pageLo, runs[i-1].pageHi, runs[i].pageLo, runs[i].pageHi)
			}
			pages += runs[i].pageHi - runs[i].pageLo + 1
		}
		if pages != pred.Pages {
			t.Errorf("region %v: runs span %d pages, analytic predicts %d", r, pages, pred.Pages)
		}
	}
}

// TestParallelColdQueryReconcilesWithAnalytic: on a cold pool, on every
// window, the merged tally and the fragment trace spans must equal the
// analytic prediction exactly — same pages, same seeks, one fragment span
// per seek run — and the sum the warm one.
func TestParallelColdQueryReconcilesWithAnalytic(t *testing.T) {
	for _, frames := range windowFrames {
		for _, r := range parallelTestRegions() {
			fs, o, sizes, path, _ := buildParallelStore(t, 128)
			fs = reopenCold(t, fs, path, o, sizes, frames)
			window := fs.spanWindow()
			pred := fs.Layout().Query(r)

			rec := trace.NewRecorder(trace.Config{SampleEvery: 1})
			ctx, tr := rec.Start(context.Background(), "query")
			if tr == nil {
				t.Fatal("recorder did not trace")
			}
			sum, stats, err := sumRegion(ctx, fs, r, decodeF64)
			if err != nil {
				t.Fatal(err)
			}
			tr.Finish(nil)

			warmSum, _, err := sumRegion(context.Background(), fs, r, decodeF64)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(sum-warmSum) > 1e-9*(1+math.Abs(warmSum)) {
				t.Errorf("window %d region %v: cold sum %v, warm %v", window, r, sum, warmSum)
			}
			if stats.Misses != pred.Pages {
				t.Errorf("window %d region %v: cold misses %d, analytic pages %d", window, r, stats.Misses, pred.Pages)
			}

			var frags, spanSeeks, spanPages int64
			for _, sp := range tr.Spans() {
				if sp.Kind == trace.KindFragment {
					frags++
					spanSeeks += attrVal(t, sp, "seeks")
					spanPages += attrVal(t, sp, "pages_read")
				}
			}
			if spanSeeks != pred.Seeks {
				t.Errorf("window %d region %v: fragment seek attrs sum to %d, analytic %d", window, r, spanSeeks, pred.Seeks)
			}
			if spanPages != pred.Pages {
				t.Errorf("window %d region %v: fragment pages_read sum to %d, analytic %d", window, r, spanPages, pred.Pages)
			}
			if pred.Seeks > 0 && frags != pred.Seeks {
				t.Errorf("window %d region %v: %d fragment spans, want one per analytic seek run %d", window, r, frags, pred.Seeks)
			}
			fs.Close()
		}
	}
}

// slowCountFile wraps a paged file, counting physical reads per page and
// optionally holding every read on a gate until it is closed.
type slowCountFile struct {
	PagedFile
	gate    chan struct{}
	mu      sync.Mutex
	perPage map[int64]int
	reads   atomic.Int64
}

func (f *slowCountFile) ReadPage(page int64, buf []byte) error {
	f.reads.Add(1)
	f.mu.Lock()
	if f.perPage == nil {
		f.perPage = make(map[int64]int)
	}
	f.perPage[page]++
	f.mu.Unlock()
	if f.gate != nil {
		<-f.gate
	}
	return f.PagedFile.ReadPage(page, buf)
}

// openGated reopens the store behind a slowCountFile.
func openGated(t *testing.T, fs *FileStore, path string, o *linear.Order, sizes []int64, frames int, gate chan struct{}) (*FileStore, *slowCountFile) {
	t.Helper()
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPageFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	sf := &slowCountFile{PagedFile: pf, gate: gate}
	re, err := NewFileStoreOn(sf, o, sizes, frames, loaded)
	if err != nil {
		t.Fatal(err)
	}
	return re, sf
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelSingleFlightCoalesces: when two whole concurrent queries want
// the same span windows at once, the
// pool's single-flight load must keep every page at exactly one physical
// read, and the per-query tallies must attribute every load exactly once.
func TestParallelSingleFlightCoalesces(t *testing.T) {
	fs, o, sizes, path, _ := buildParallelStore(t, 128)
	gate := make(chan struct{})
	fs, sf := openGated(t, fs, path, o, sizes, 128, gate)
	defer fs.Close()

	r := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}
	pred := fs.Layout().Query(r)
	var stats [2]PoolStats
	var wg sync.WaitGroup
	for q := 0; q < 2; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			_, st, err := sumRegion(context.Background(), fs, r, decodeF64)
			if err != nil {
				t.Errorf("query %d: %v", q, err)
			}
			stats[q] = st
		}(q)
	}
	// Let the first demand read block on the gate with the second query's
	// whole overlapping span pinned behind it, then release: if coalescing
	// were broken the second query would have issued duplicate loads. (The
	// sum kernel's span windows serialize loads within a query, so only one
	// read can be in flight here — both queries fight over the same pages.)
	waitFor(t, "blocked page loads", func() bool { return sf.reads.Load() >= 1 })
	close(gate)
	wg.Wait()

	sf.mu.Lock()
	for page, n := range sf.perPage {
		if n != 1 {
			t.Errorf("page %d physically read %d times, want 1 (single-flight broken)", page, n)
		}
	}
	distinct := int64(len(sf.perPage))
	sf.mu.Unlock()
	if distinct != pred.Pages {
		t.Errorf("%d distinct pages read, analytic predicts %d", distinct, pred.Pages)
	}
	if got := stats[0].Misses + stats[1].Misses; got != sf.reads.Load() {
		t.Errorf("tallies attribute %d misses, file saw %d reads", got, sf.reads.Load())
	}
	for q, st := range stats {
		if st.Misses+st.SingleFlightWaits+st.Hits < pred.Pages {
			t.Errorf("query %d accounts for %d page accesses (miss+wait+hit), needs >= %d", q, st.Misses+st.SingleFlightWaits+st.Hits, pred.Pages)
		}
	}
}

// TestParallelCancelStopsSiblings: cancelling a query while its span read
// is stuck in the file stops it promptly — the query returns Canceled, no
// load is in flight after it returns, and most of the scan never happened.
func TestParallelCancelStopsSiblings(t *testing.T) {
	fs, o, sizes, path, _ := buildParallelStore(t, 128)
	gate := make(chan struct{})
	fs, sf := openGated(t, fs, path, o, sizes, 128, gate)
	defer fs.Close()

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	// A column region fragments into one seek run per row.
	go func() {
		_, _, err := sumRegion(ctx, fs, linear.Region{{Lo: 0, Hi: 8}, {Lo: 3, Hi: 4}}, decodeF64)
		errc <- err
	}()
	waitFor(t, "a span read blocked in the file", func() bool { return sf.reads.Load() >= 1 })
	cancel()
	close(gate)
	var err error
	select {
	case err = <-errc:
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query did not return")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	settled := sf.reads.Load()
	time.Sleep(50 * time.Millisecond)
	if now := sf.reads.Load(); now != settled {
		t.Errorf("stray page loads after the query returned: %d -> %d", settled, now)
	}
	if total := fs.Layout().TotalPages(); settled >= total/2 {
		t.Errorf("%d of %d pages read despite early cancel", settled, total)
	}
}

// TestParallelReadErrorsMatchSequential: a failing cell surfaces as the same
// deterministic error on every window.
func TestParallelReadErrorsMatchSequential(t *testing.T) {
	r := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}
	var want string
	for _, frames := range windowFrames {
		fs, _, _, _, _ := buildParallelStore(t, frames)
		// Corrupt cell 13's record framing: an absurd length prefix makes the
		// record overrun the cell.
		pos := fs.layout.order.PosOf(13)
		if err := fs.pool.WriteAt([]byte{0xff, 0xff, 0xff, 0xff}, fs.dir[pos].start); err != nil {
			t.Fatal(err)
		}
		_, _, err := sumRegion(context.Background(), fs, r, decodeF64)
		if err == nil {
			t.Fatalf("window %d missed the corrupt framing", fs.spanWindow())
		}
		if want == "" {
			want = err.Error()
		} else if err.Error() != want {
			t.Errorf("window %d: err %v, window 1 %v", fs.spanWindow(), err, want)
		}
		fs.Close()
	}
}

// TestParallelClosedStore: planning and reading a plan prepared before
// Close both fail with ErrClosed.
func TestParallelClosedStore(t *testing.T) {
	fs, _, _, _, _ := buildParallelStore(t, 16)
	r := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}
	p, err := fs.Plan(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.ReadPlanCellsCtx(context.Background(), p, rowcodec.Records(func(int, []byte) error { return nil })); !errors.Is(err, ErrClosed) {
		t.Errorf("ReadPlanCtx err = %v, want ErrClosed", err)
	}
	if _, err := fs.Plan(context.Background(), r); !errors.Is(err, ErrClosed) {
		t.Errorf("Plan err = %v, want ErrClosed", err)
	}
}

// TestSumRunKernelZeroAlloc: the run body must not allocate in steady
// state on a warm pool — not per record, per cell, per page or per run.
func TestSumRunKernelZeroAlloc(t *testing.T) {
	fs, _, _, _, _ := buildParallelStore(t, 128)
	defer fs.Close()
	r := linear.Region{{Lo: 0, Hi: 8}, {Lo: 3, Hi: 4}} // one column: a run per row
	// Warm the pool.
	if _, _, err := sumRegion(context.Background(), fs, r, decodeF64); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	p, err := fs.Plan(ctx, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.runs) < 2 {
		t.Fatalf("want a multi-run region, got %d runs", len(p.runs))
	}
	total := 0.0
	add := func(_ int, rec []byte) error {
		total += decodeF64(rec)
		return nil
	}
	x := &execution{fs: fs, plan: p, fn: func(cell int, framed []byte) error {
		return rowcodec.WalkRecords(cell, framed, add)
	}}
	sc := &runScratch{}
	for _, x.window = range []int{1, 4} {
		kernel := func() {
			for i := range p.runs {
				if err := x.readRun(ctx, &p.runs[i], sc); err != nil {
					t.Fatal(err)
				}
			}
		}
		kernel() // size the scratch buffers
		if allocs := testing.AllocsPerRun(100, kernel); allocs != 0 {
			t.Errorf("run body (window %d) allocates %v times per warm query, want 0", x.window, allocs)
		}
	}
}

// TestRecordWalkerMatchesWalkRecords holds cell assembly to the bytes
// written: random framings — zero-length records, partial headers and
// truncated records included — laid at every offset from a page boundary,
// so a boundary splits them at every possible place, come back from
// ReadPlanCellsCtx whole, once each and in disk order at window 1 and 3, and
// ReadPlanCtx walks them into walkRecords' records and error.
func TestRecordWalkerMatchesWalkRecords(t *testing.T) {
	o, err := linear.RowMajor(hierarchy.MustSchema(hierarchy.Binary("A", 4), hierarchy.Binary("B", 3)), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	const page = 64
	usable := int64(page - PageTrailerSize)
	ctx := context.Background()
	full := linear.Region{{Lo: 0, Hi: 16}, {Lo: 0, Hi: 8}}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		// Random framing, sometimes deliberately damaged.
		var buf []byte
		for r := 0; r < 1+rng.Intn(5); r++ {
			n := rng.Intn(30)
			buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
			for i := 0; i < n; i++ {
				buf = append(buf, byte(rng.Intn(256)))
			}
		}
		switch rng.Intn(4) {
		case 0:
			buf = buf[:1+rng.Intn(len(buf))] // truncate anywhere
		case 1:
			buf = append(buf, byte(rng.Intn(3))) // trailing partial header
		}
		// Position 2k reserves padding that starts position 2k+1, which holds
		// buf, k bytes past a page boundary.
		sizes := make([]int64, o.Len())
		end := int64(0)
		for k := 0; k < o.Len()/2; k++ {
			pad := ((int64(k)-end)%usable + usable) % usable
			sizes[o.CellAt(2*k)], sizes[o.CellAt(2*k+1)] = pad, int64(len(buf))
			end += pad + int64(len(buf))
		}
		fs, err := CreateFileStore(filepath.Join(t.TempDir(), "walk.db"), o, sizes, page, 4096)
		if err != nil {
			t.Fatal(err)
		}
		var want []int // the buf cells, in disk order
		offsets := map[int64]bool{}
		for pos := 1; pos < o.Len(); pos += 2 {
			e := &fs.dir[pos]
			if err := fs.pool.WriteAt(buf, e.start); err != nil {
				t.Fatal(err)
			}
			e.fill = uint32(len(buf))
			want = append(want, int(e.cell))
			offsets[e.start%usable] = true
		}
		if int64(len(offsets)) != usable {
			t.Fatalf("buf starts at %d of the %d offsets into a page", len(offsets), usable)
		}
		fs.epoch++
		plan, err := fs.Plan(ctx, full)
		if err != nil {
			t.Fatal(err)
		}
		for _, frames := range []int{2, 6} {
			setPoolFrames(t, fs, frames)
			window := fs.spanWindow()
			var got []int
			if err := fs.ReadPlanCellsCtx(ctx, plan, func(cell int, framed []byte) error {
				if !bytes.Equal(framed, buf) {
					t.Fatalf("trial %d window %d: cell %d came back as %x, written %x", trial, window, cell, framed, buf)
				}
				got = append(got, cell)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("trial %d window %d: cells %v, want %v", trial, window, got, want)
			}
			var wantRecs, gotRecs [][]byte
			wantErr := rowcodec.WalkRecords(want[0], buf, func(_ int, rec []byte) error { wantRecs = append(wantRecs, rec); return nil })
			gotErr := fs.ReadPlanCellsCtx(ctx, plan, rowcodec.Records(func(cell int, rec []byte) error {
				if cell == want[0] {
					gotRecs = append(gotRecs, append([]byte(nil), rec...))
				}
				return nil
			}))
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || fmt.Sprint(gotRecs) != fmt.Sprint(wantRecs) {
				t.Fatalf("trial %d window %d buf %x: records %x err %v; walkRecords %x err %v", trial, window, buf, gotRecs, gotErr, wantRecs, wantErr)
			}
		}
		fs.Close()
	}
}

// TestParallelEmptyRegion: a region of only-empty cells reads nothing and
// touches no page.
func TestParallelEmptyRegion(t *testing.T) {
	fs, _, _, _, _ := buildParallelStore(t, 16)
	defer fs.Close()
	r := linear.Region{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}} // cell 0 is empty
	calls := 0
	if err := readRegion(context.Background(), fs, r, func(int, []byte) error { calls++; return nil }); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("%d records from an empty region", calls)
	}
	sum, stats, err := sumRegion(context.Background(), fs, r, decodeF64)
	if err != nil || sum != 0 {
		t.Errorf("empty region sum = %v, err %v", sum, err)
	}
	if stats.Misses != 0 {
		t.Errorf("empty region touched %d pages", stats.Misses)
	}
}

// TestPoolResetColdReload: BufferPool.Reset must flush dirty frames, drop
// everything, and leave the next pass genuinely cold — the same misses a
// fresh pool would take — while the store (and its prepared plans) lives on.
func TestPoolResetColdReload(t *testing.T) {
	fs, _, _, _, total := buildParallelStore(t, 128)
	defer fs.Close()
	ctx := context.Background()
	full := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}

	// The load left every touched page dirty in the pool; Reset must write
	// them back before dropping the frames, or the sums below read zeros.
	if err := fs.Pool().Reset(ctx); err != nil {
		t.Fatal(err)
	}

	sum1, st1, err := sumRegion(ctx, fs, full, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	if sum1 != total {
		t.Fatalf("post-reset sum = %v, want %v", sum1, total)
	}
	if st1.Misses == 0 {
		t.Fatal("cold pass took no misses")
	}
	_, warm, err := sumRegion(ctx, fs, full, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Misses != 0 {
		t.Fatalf("warm pass took %d misses, want 0", warm.Misses)
	}
	if err := fs.Pool().Reset(ctx); err != nil {
		t.Fatal(err)
	}
	_, st2, err := sumRegion(ctx, fs, full, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Misses != st1.Misses {
		t.Fatalf("second cold pass took %d misses, want %d", st2.Misses, st1.Misses)
	}
}

// TestPoolResetRefusesPinnedFrames: Reset is a quiescent-point operation —
// with any frame pinned it must fail rather than pull pages out from under
// the pinner.
func TestPoolResetRefusesPinnedFrames(t *testing.T) {
	fs, _, _, _, _ := buildParallelStore(t, 128)
	defer fs.Close()
	ctx := context.Background()
	fr, err := fs.pool.get(ctx, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.Pool().Reset(ctx); err == nil {
		t.Fatal("Reset succeeded with a pinned frame")
	}
	fs.pool.unpin(fr)
	if err := fs.Pool().Reset(ctx); err != nil {
		t.Fatalf("Reset after unpin: %v", err)
	}
}

// TestPlanCacheInvalidatedByPut: prepared plans embed fills and run
// grouping, so a PutRecord between queries must move the write epoch — a
// stale plan would silently drop the new record.
func TestPlanCacheInvalidatedByPut(t *testing.T) {
	o := concurrentOrder(t)
	n := o.Len()
	sizes := make([]int64, n)
	for c := range sizes {
		sizes[c] = 4 * rowcodec.FrameSize(8) // room for four records; we load one
	}
	path := filepath.Join(t.TempDir(), "plancache.db")
	fs, err := CreateFileStore(path, o, sizes, 64, 128)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	put := func(cell int, v float64) {
		p := make([]byte, 8)
		binary.LittleEndian.PutUint64(p, math.Float64bits(v))
		if err := rowcodec.PutRecord(fs, cell, p); err != nil {
			t.Fatal(err)
		}
	}
	want := 0.0
	for c := 0; c < n; c++ {
		put(c, float64(c))
		want += float64(c)
	}
	ctx := context.Background()
	full := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}
	for pass := 0; pass < 2; pass++ { // second pass serves from the plan cache
		got, _, err := sumRegion(ctx, fs, full, decodeF64)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("pass %d: sum = %v, want %v", pass, got, want)
		}
	}
	put(3, 1000) // grows cell 3's fill: every cached plan is now stale
	want += 1000
	got, _, err := sumRegion(ctx, fs, full, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("post-put sum = %v, want %v (stale plan dropped the new record?)", got, want)
	}
	count := 0
	if err := readRegion(ctx, fs, full, func(int, []byte) error {
		count++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count != n+1 {
		t.Fatalf("post-put read saw %d records, want %d", count, n+1)
	}
}
