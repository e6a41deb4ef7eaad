package storage

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/linear"
	"repro/internal/rowcodec"
	"repro/internal/trace"
)

// faultFixture is the shared workload for fault testing: a 4×4 grid with
// 1–3 records per cell on 64-byte pages.
type faultFixture struct {
	order  *linear.Order
	bytes  []int64
	values [][]float64
	want   float64 // full-grid sum
	pages  int64
}

func newFaultFixture(t *testing.T) *faultFixture {
	t.Helper()
	o := rowMajor4x4(t)
	fx := &faultFixture{order: o}
	fx.values = make([][]float64, o.Len())
	fx.bytes = make([]int64, o.Len())
	for c := range fx.values {
		n := 1 + c%3
		fx.values[c] = make([]float64, n)
		for i := range fx.values[c] {
			v := float64(c*10 + i)
			fx.values[c][i] = v
			fx.want += v
		}
		fx.bytes[c] = int64(n) * rowcodec.FrameSize(8)
	}
	layout, err := NewFileLayout(o, fx.bytes, 64)
	if err != nil {
		t.Fatal(err)
	}
	fx.pages = layout.TotalPages()
	return fx
}

func (fx *faultFixture) fullRegion() linear.Region {
	return linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}
}

// run executes the build→flush→query workload over the given paged file
// with a small pool (to force evictions and re-reads) and zero retry
// backoff. It returns the final per-cell loaded bytes on success. Any
// silent data corruption is converted into an error.
func (fx *faultFixture) run(pf PagedFile) ([]int64, error) {
	fs, err := NewFileStoreOn(pf, fx.order, fx.bytes, 2, nil)
	if err != nil {
		return nil, err
	}
	fs.pool.SetRetry(RetryPolicy{MaxRetries: 3, Backoff: 0})
	buf := make([]byte, 8)
	for c, vs := range fx.values {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if err := rowcodec.PutRecord(fs, c, buf); err != nil {
				return nil, err
			}
		}
	}
	if err := fs.pool.Flush(); err != nil {
		return nil, err
	}
	got, _, err := sumRegion(context.Background(), fs, fx.fullRegion(), decodeF64)
	if err != nil {
		return nil, err
	}
	if math.Abs(got-fx.want) > 1e-9 {
		return nil, fmt.Errorf("silent corruption: sum %v, want %v", got, fx.want)
	}
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		return nil, err
	}
	return loaded, nil
}

// newInjector creates a fresh page file for the fixture and wraps it in an
// injector with the given schedule.
func (fx *faultFixture) newInjector(t *testing.T, dir, name string, faults ...Fault) *FaultInjector {
	t.Helper()
	pf, err := CreatePageFile(filepath.Join(dir, name), 64, fx.pages)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pf.Close() }) // harmless double close on success paths
	return NewFaultInjector(pf, 42, faults...)
}

func TestFaultInjectorCountsAndTransient(t *testing.T) {
	fx := newFaultFixture(t)
	dir := t.TempDir()
	fi := fx.newInjector(t, dir, "clean.db")
	if _, err := fx.run(fi); err != nil {
		t.Fatalf("clean run failed: %v", err)
	}
	if fi.Ops(OpRead) == 0 || fi.Ops(OpWrite) == 0 || fi.Ops(OpSync) == 0 {
		t.Fatalf("ops not counted: %d/%d/%d", fi.Ops(OpRead), fi.Ops(OpWrite), fi.Ops(OpSync))
	}
	if fi.Injected() != 0 {
		t.Fatalf("clean injector fired %d faults", fi.Injected())
	}

	// A transient error is typed and retryable.
	fi2 := fx.newInjector(t, dir, "t.db", Fault{Op: OpRead, Index: 0, Kind: FaultTransient})
	buf := make([]byte, 64)
	err := fi2.ReadPages(0, buf)
	if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrInjected) {
		t.Fatalf("transient fault err = %v", err)
	}
	if err := fi2.ReadPages(0, buf); err != nil {
		t.Fatalf("retry after transient should succeed: %v", err)
	}

	// Bit flips are deterministic in the seed.
	a := fx.newInjector(t, dir, "a.db", Fault{Op: OpRead, Index: 0, Kind: FaultBitFlip})
	b := fx.newInjector(t, dir, "b.db", Fault{Op: OpRead, Index: 0, Kind: FaultBitFlip})
	ba, bb := make([]byte, 64), make([]byte, 64)
	if err := a.ReadPages(0, ba); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadPages(0, bb); err != nil {
		t.Fatal(err)
	}
	if string(ba) != string(bb) {
		t.Fatal("same seed, same index: flips differ")
	}
	if allZero(ba) {
		t.Fatal("bit flip did not flip anything")
	}
}

// TestFaultInjectorReadPagesPerPage: a multi-page read draws one read index
// per page in page order. A transient fault stops it at its page, so only
// the pages up to it draw an index, and the retry draws fresh ones; a bit
// flip changes one bit of its own page and leaves the others as on disk.
func TestFaultInjectorReadPagesPerPage(t *testing.T) {
	dir := t.TempDir()
	pf, err := CreatePageFile(filepath.Join(dir, "pages.db"), 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	disk := make([]byte, 4*64)
	for i := range disk {
		disk[i] = byte(i)
	}
	for p := int64(0); p < 4; p++ {
		if err := pf.WritePage(p, disk[p*64:(p+1)*64]); err != nil {
			t.Fatal(err)
		}
	}

	fi := NewFaultInjector(pf, 42, Fault{Op: OpRead, Index: 2, Kind: FaultTransient})
	buf := make([]byte, 4*64)
	if err := fi.ReadPages(0, buf); !errors.Is(err, ErrTransient) || fi.Ops(OpRead) != 3 {
		t.Fatalf("transient at op 2: err = %v after %d read ops, want ErrTransient after 3", err, fi.Ops(OpRead))
	}
	if err := fi.ReadPages(0, buf); err != nil || fi.Ops(OpRead) != 7 || !bytes.Equal(buf, disk) {
		t.Fatalf("retry: err = %v after %d read ops, want the pages after 7", err, fi.Ops(OpRead))
	}

	fi = NewFaultInjector(pf, 42, Fault{Op: OpRead, Index: 1, Kind: FaultBitFlip})
	a, b := make([]byte, 2*64), make([]byte, 2*64)
	if err := fi.ReadPages(0, a, b); err != nil || fi.Ops(OpRead) != 4 {
		t.Fatalf("flip at op 1: err = %v after %d read ops, want nil after 4", err, fi.Ops(OpRead))
	}
	got := append(a, b...)
	for p := 0; p < 4; p++ {
		flipped := 0
		for i := p * 64; i < (p+1)*64; i++ {
			flipped += bits.OnesCount8(got[i] ^ disk[i])
		}
		if want := map[bool]int{true: 1, false: 0}[p == 1]; flipped != want {
			t.Errorf("page %d: %d bits flipped, want %d", p, flipped, want)
		}
	}
}

func TestBufferPoolRetryBudget(t *testing.T) {
	fx := newFaultFixture(t)
	dir := t.TempDir()

	// A burst of transient faults within the retry budget rides through.
	fi := fx.newInjector(t, dir, "ok.db", Fault{Op: OpWrite, Index: 0, Kind: FaultTransient, Repeat: 3})
	if _, err := fx.run(fi); err != nil {
		t.Fatalf("3 transients vs 3 retries should succeed: %v", err)
	}
	if fi.Injected() != 3 {
		t.Fatalf("injected = %d, want 3", fi.Injected())
	}

	// A burst exceeding the budget fails loudly with the transient error.
	fi2 := fx.newInjector(t, dir, "over.db", Fault{Op: OpWrite, Index: 0, Kind: FaultTransient, Repeat: 10})
	if _, err := fx.run(fi2); !errors.Is(err, ErrTransient) {
		t.Fatalf("transient burst past the budget: err = %v, want ErrTransient", err)
	}
}

// TestCloseSurfacesSyncFailure pins down the error-propagation satellite:
// a failed sync under Close must reach the caller, never be swallowed.
func TestCloseSurfacesSyncFailure(t *testing.T) {
	fx := newFaultFixture(t)
	fi := fx.newInjector(t, t.TempDir(), "sync.db",
		Fault{Op: OpSync, Index: 0, Kind: FaultPermanent})
	fs, err := NewFileStoreOn(fi, fx.order, fx.bytes, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.pool.SetRetry(RetryPolicy{MaxRetries: 3, Backoff: 0})
	if err := rowcodec.PutRecord(fs, 0, make([]byte, 8)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Close must surface the sync failure, got %v", err)
	}
}

// TestSingleFaultAtEveryIndex is the deterministic fault sweep of the
// acceptance criteria: for every I/O index of the build→flush→query
// workload and every fault kind, the store either retries to success or
// fails loudly with a typed error — and whenever the run reports success,
// the surviving file must scrub clean and return exact query results.
func TestSingleFaultAtEveryIndex(t *testing.T) {
	fx := newFaultFixture(t)
	dir := t.TempDir()

	base := fx.newInjector(t, dir, "base.db")
	if _, err := fx.run(base); err != nil {
		t.Fatalf("baseline run failed: %v", err)
	}
	opCounts := map[FaultOp]int64{
		OpRead:  base.Ops(OpRead),
		OpWrite: base.Ops(OpWrite),
		OpSync:  base.Ops(OpSync),
	}

	kinds := map[FaultOp][]FaultKind{
		OpRead:  {FaultTransient, FaultPermanent, FaultBitFlip},
		OpWrite: {FaultTransient, FaultPermanent, FaultTorn, FaultBitFlip},
		OpSync:  {FaultTransient, FaultPermanent},
	}
	run := 0
	for op, ks := range kinds {
		for _, kind := range ks {
			for idx := int64(0); idx < opCounts[op]; idx++ {
				run++
				name := fmt.Sprintf("f%d.db", run)
				fi := fx.newInjector(t, dir, name, Fault{Op: op, Index: idx, Kind: kind})
				loaded, err := fx.run(fi)
				label := fmt.Sprintf("%s fault at %s op %d", kind, op, idx)

				switch kind {
				case FaultTransient:
					if err != nil {
						t.Fatalf("%s: single transient must be retried to success, got %v", label, err)
					}
				case FaultPermanent, FaultTorn:
					if err == nil {
						t.Fatalf("%s: must fail loudly", label)
					}
					if !errors.Is(err, ErrInjected) && !errors.Is(err, ErrCorruptPage) {
						t.Fatalf("%s: untyped error %v", label, err)
					}
				case FaultBitFlip:
					if op == OpRead {
						// Every pool miss verifies the trailer, so a read
						// flip can never go unnoticed.
						if !errors.Is(err, ErrCorruptPage) {
							t.Fatalf("%s: err = %v, want ErrCorruptPage", label, err)
						}
					} else if err != nil && !errors.Is(err, ErrCorruptPage) {
						t.Fatalf("%s: untyped error %v", label, err)
					}
				}

				if err == nil {
					// The run claimed success: the file on disk must scrub
					// clean (or the scrub must expose the damage) and the
					// full-grid query must be exact.
					fx.checkSurvivor(t, dir, name, loaded, label, kind == FaultBitFlip && op == OpWrite)
				}
			}
		}
	}
	if run == 0 {
		t.Fatal("no fault runs executed")
	}
}

// checkSurvivor reopens a post-fault file cleanly and requires either a
// detected problem (allowed only for silent write flips) or exact data.
func (fx *faultFixture) checkSurvivor(t *testing.T, dir, name string, loaded []int64, label string, damageAllowed bool) {
	t.Helper()
	fs, err := OpenFileStore(filepath.Join(dir, name), fx.order, fx.bytes, 64, 8, loaded)
	if err != nil {
		t.Fatalf("%s: reopening survivor: %v", label, err)
	}
	defer fs.Close()
	rep, err := fs.Verify()
	if err != nil {
		t.Fatalf("%s: scrub aborted: %v", label, err)
	}
	if !rep.OK() {
		if !damageAllowed {
			t.Fatalf("%s: run succeeded but scrub found %v", label, rep.Problems)
		}
		return // silent write flip detected by the scrub: contract held
	}
	got, _, err := sumRegion(context.Background(), fs, fx.fullRegion(), decodeF64)
	if err != nil {
		t.Fatalf("%s: querying survivor: %v", label, err)
	}
	if math.Abs(got-fx.want) > 1e-9 {
		t.Fatalf("%s: silent corruption survived scrub: sum %v, want %v", label, got, fx.want)
	}
}

// readCounter sits between a FaultInjector and the file under it and
// records every ReadPages call that reaches the file as its first page and
// page count.
type readCounter struct {
	PagedFile
	mu    sync.Mutex
	calls [][2]int64
}

func (rc *readCounter) ReadPages(page int64, bufs ...[]byte) error {
	n := int64(0)
	for _, buf := range bufs {
		n += int64(len(buf) / rc.PageSize())
	}
	rc.mu.Lock()
	rc.calls = append(rc.calls, [2]int64{page, n})
	rc.mu.Unlock()
	return rc.PagedFile.ReadPages(page, bufs...)
}

// pages expands the recorded calls into the pages they read, in order.
func (rc *readCounter) pages() []int64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var out []int64
	for _, c := range rc.calls {
		for p := c[0]; p < c[0]+c[1]; p++ {
			out = append(out, p)
		}
	}
	return out
}

// openInjected reopens the parallel store's file cold through a
// FaultInjector over a readCounter, with a pool of frames frames and zero
// retry backoff.
func openInjected(t *testing.T, path string, o *linear.Order, sizes, loaded []int64, frames int, faults ...Fault) (*FileStore, *FaultInjector, *readCounter) {
	t.Helper()
	pf, err := OpenPageFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	rc := &readCounter{PagedFile: pf}
	fi := NewFaultInjector(rc, 7, faults...)
	fs, err := NewFileStoreOn(fi, o, sizes, frames, loaded)
	if err != nil {
		pf.Close()
		t.Fatal(err)
	}
	fs.pool.SetRetry(RetryPolicy{MaxRetries: 3, Backoff: 0})
	return fs, fi, rc
}

// TestChaosSpanReadOnePerGroup: under fault injection a cold query reads as
// it does in service. Every page load the pool makes — one per contiguous
// group of claimed pages, as its page_load spans record — reaches the file
// as exactly one ReadPages call for exactly those pages, through the
// injector and the checksum layer.
func TestChaosSpanReadOnePerGroup(t *testing.T) {
	built, o, sizes, path, _ := buildParallelStore(t, 128)
	loaded := built.LoadedBytes()
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	for _, r := range parallelTestRegions() {
		fs, fi, rc := openInjected(t, path, o, sizes, loaded, 128)
		pred := fs.Layout().Query(r)
		rec := trace.NewRecorder(trace.Config{SampleEvery: 1, MaxSpans: 4096})
		ctx, tr := rec.Start(context.Background(), "query")
		rc.calls = nil
		before := fi.Ops(OpRead)
		_, st, err := sumRegion(ctx, fs, r, decodeF64)
		if err != nil {
			t.Fatal(err)
		}
		tr.Finish(nil)
		var loads [][2]int64
		for _, sp := range tr.Spans() {
			if sp.Kind == trace.KindPageLoad {
				loads = append(loads, [2]int64{attrVal(t, sp, "page"), attrVal(t, sp, "pages")})
			}
		}
		if !reflect.DeepEqual(rc.calls, loads) {
			t.Errorf("region %v: the file saw reads %v, the pool loaded groups %v", r, rc.calls, loads)
		}
		if n := int64(len(rc.pages())); n != pred.Pages || n != st.Misses || fi.Ops(OpRead)-before != n {
			t.Errorf("region %v: %d pages read, %d misses, %d read indices drawn; analytic %d", r, n, st.Misses, fi.Ops(OpRead)-before, pred.Pages)
		}
		if pred.Pages > pred.Seeks && int64(len(rc.calls)) >= pred.Pages {
			t.Errorf("region %v: %d reads for %d pages in %d seeks: pages are read one at a time", r, len(rc.calls), pred.Pages, pred.Seeks)
		}
		fs.Close()
	}
}

// TestChaosSpanReadFaultSweep injects one read fault at every read index a
// cold query draws through windows of several pages, of every read kind in
// turn: a transient is ridden out with the analytic pages and seeks and the
// right sum; a permanent fault fails the query as an injected error, a bit
// flip as the flipped page's CorruptPageError; and since a read fault never
// reaches the disk, a clean reopen scrubs clean after each.
func TestChaosSpanReadFaultSweep(t *testing.T) {
	built, o, sizes, path, _ := buildParallelStore(t, 128)
	loaded := built.LoadedBytes()
	if err := built.Close(); err != nil {
		t.Fatal(err)
	}
	const frames = 8 // windows of four pages
	regions := []linear.Region{
		{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}, // one run
		{{Lo: 1, Hi: 6}, {Lo: 2, Hi: 7}}, // a run per row
	}
	for _, r := range regions {
		fs, fi, rc := openInjected(t, path, o, sizes, loaded, frames)
		pred := fs.Layout().Query(r)
		first := fi.Ops(OpRead)
		rc.calls = nil
		want, _, err := sumRegion(context.Background(), fs, r, decodeF64)
		if err != nil {
			t.Fatal(err)
		}
		pages := rc.pages()
		if int64(len(pages)) != pred.Pages || len(rc.calls) >= len(pages) {
			t.Fatalf("region %v: clean run read %d pages in %d calls, analytic %d", r, len(pages), len(rc.calls), pred.Pages)
		}
		fs.Close()
		for i, page := range pages {
			idx := first + int64(i)
			for _, kind := range []FaultKind{FaultTransient, FaultPermanent, FaultBitFlip} {
				label := fmt.Sprintf("region %v: %s read fault at op %d (page %d)", r, kind, idx, page)
				fs, fi, _ := openInjected(t, path, o, sizes, loaded, frames, Fault{Op: OpRead, Index: idx, Kind: kind})
				var tally PoolTally
				got, _, err := sumRegion(WithPoolTally(context.Background(), &tally), fs, r, decodeF64)
				var cpe *CorruptPageError
				switch {
				case fi.Injected() != 1:
					t.Errorf("%s: %d faults fired, want 1", label, fi.Injected())
				case kind == FaultTransient && err != nil:
					t.Errorf("%s: not ridden out: %v", label, err)
				case kind == FaultTransient && (got != want || tally.Stats().Misses != pred.Pages || tally.Seeks() != pred.Seeks):
					t.Errorf("%s: sum %v, %d pages, %d seeks; want %v, %d, %d", label, got, tally.Stats().Misses, tally.Seeks(), want, pred.Pages, pred.Seeks)
				case kind == FaultPermanent && !errors.Is(err, ErrInjected):
					t.Errorf("%s: err = %v, want ErrInjected", label, err)
				case kind == FaultBitFlip && (!errors.As(err, &cpe) || cpe.Page != page):
					t.Errorf("%s: err = %v, want page %d's CorruptPageError", label, err, page)
				}
				if err := fs.Close(); err != nil {
					t.Fatalf("%s: close: %v", label, err)
				}
				clean, err := OpenFileStore(path, o, sizes, 64, frames, loaded)
				if err != nil {
					t.Fatal(err)
				}
				if rep, err := clean.Verify(); err != nil || !rep.OK() {
					t.Errorf("%s: scrub after the run: %v %v", label, err, rep.Problems)
				}
				clean.Close()
			}
		}
	}
}
