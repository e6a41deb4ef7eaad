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
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hierarchy"
	"repro/internal/linear"
	"repro/internal/rowcodec"
)

// gatedFile is a PagedFile whose reads block until the gate opens, for
// observing in-flight load coalescing.
type gatedFile struct {
	pageSize int
	pages    int64
	gate     chan struct{}
	reads    atomic.Int64
}

func (g *gatedFile) PageSize() int { return g.pageSize }
func (g *gatedFile) Pages() int64  { return g.pages }
func (g *gatedFile) ReadPage(page int64, buf []byte) error {
	g.reads.Add(1)
	<-g.gate
	for i := range buf {
		buf[i] = byte(page)
	}
	return nil
}
func (g *gatedFile) WritePage(int64, []byte) error { return nil }
func (g *gatedFile) Sync() error                   { return nil }
func (g *gatedFile) Close() error                  { return nil }

func TestBufferPoolSingleFlightCoalescesMisses(t *testing.T) {
	gf := &gatedFile{pageSize: 16, pages: 4, gate: make(chan struct{})}
	bp, err := NewBufferPool(gf, 4)
	if err != nil {
		t.Fatal(err)
	}
	const readers = 8
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 4)
			if err := bp.ReadAt(buf, 16); err != nil { // page 1 for everyone
				t.Error(err)
			}
			if buf[0] != 1 {
				t.Errorf("read %d, want page-1 fill", buf[0])
			}
		}()
	}
	// One goroutine is loading; the rest must be registered as waiters
	// before we open the gate.
	deadline := time.Now().Add(5 * time.Second)
	for bp.Stats().SingleFlightWaits < readers-1 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d single-flight waits", bp.Stats().SingleFlightWaits)
		}
		time.Sleep(time.Millisecond)
	}
	close(gf.gate)
	wg.Wait()
	if got := gf.reads.Load(); got != 1 {
		t.Errorf("physical reads = %d, want 1 coalesced load", got)
	}
	st := bp.Stats()
	if st.Misses != 1 || st.SingleFlightWaits != readers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d waits", st, readers-1)
	}
}

func TestBufferPoolWaiterCancelledDuringLoad(t *testing.T) {
	gf := &gatedFile{pageSize: 16, pages: 4, gate: make(chan struct{})}
	bp, err := NewBufferPool(gf, 4)
	if err != nil {
		t.Fatal(err)
	}
	loaderDone := make(chan error, 1)
	go func() {
		loaderDone <- bp.ReadAt(make([]byte, 4), 0)
	}()
	for bp.Stats().Misses == 0 {
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	waiterDone := make(chan error, 1)
	go func() {
		waiterDone <- bp.ReadAtCtx(ctx, make([]byte, 4), 0)
	}()
	for bp.Stats().SingleFlightWaits == 0 {
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-waiterDone; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter = %v, want context.Canceled", err)
	}
	close(gf.gate)
	if err := <-loaderDone; err != nil {
		t.Errorf("loader = %v, want success despite the waiter's cancellation", err)
	}
}

// buildConcurrentStore creates an 8×8 file store with two records per cell
// over the given paged-file stack and returns the expected full-grid sum.
func concurrentOrder(t *testing.T) *linear.Order {
	t.Helper()
	s := hierarchy.MustSchema(hierarchy.Binary("A", 3), hierarchy.Binary("B", 3))
	o, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func loadConcurrentStore(t *testing.T, fs *FileStore, o *linear.Order) float64 {
	t.Helper()
	total := 0.0
	buf := make([]byte, 8)
	for c := 0; c < o.Len(); c++ {
		for i := 0; i < 2; i++ {
			v := float64(c*10 + i)
			total += v
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if err := rowcodec.PutRecord(fs, c, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := fs.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	return total
}

func TestConcurrentQueriesSeeConsistentData(t *testing.T) {
	o := concurrentOrder(t)
	bytes := uniformBytes(o.Len(), 2*rowcodec.FrameSize(8))
	path := filepath.Join(t.TempDir(), "conc.db")
	fs, err := CreateFileStore(path, o, bytes, 128, 4) // tiny pool: constant eviction
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	want := loadConcurrentStore(t, fs, o)
	all := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				got, _, err := sumRegion(context.Background(), fs, all, decodeF64)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Abs(got-want) > 1e-9 {
					t.Errorf("concurrent Sum = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestReadQueryCtxCancellation(t *testing.T) {
	o := concurrentOrder(t)
	bytes := uniformBytes(o.Len(), 2*rowcodec.FrameSize(8))
	path := filepath.Join(t.TempDir(), "cancel.db")
	fs, err := CreateFileStore(path, o, bytes, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	loadConcurrentStore(t, fs, o)
	all := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := readRegion(ctx, fs, all, func(int, []byte) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("dead ctx scan = %v, want context.Canceled", err)
	}
	dctx, dcancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer dcancel()
	if _, _, err := sumRegion(dctx, fs, all, decodeF64); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired Sum = %v, want DeadlineExceeded", err)
	}
	if err := fs.ReadCellCtx(ctx, 3, func([]byte) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Errorf("dead ctx cell read = %v, want context.Canceled", err)
	}
	// Cancellation mid-scan: stop after the first record.
	mctx, mcancel := context.WithCancel(context.Background())
	seen := 0
	err = readRegion(mctx, fs, all, func(int, []byte) error {
		seen++
		mcancel()
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("mid-scan cancel = %v, want context.Canceled", err)
	}
	if seen == 0 || seen >= 2*o.Len() {
		t.Errorf("saw %d records before the cancel took effect", seen)
	}
}

func TestReadCellCtxReadsOneCell(t *testing.T) {
	o := concurrentOrder(t)
	bytes := uniformBytes(o.Len(), 2*rowcodec.FrameSize(8))
	path := filepath.Join(t.TempDir(), "cell.db")
	fs, err := CreateFileStore(path, o, bytes, 128, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	loadConcurrentStore(t, fs, o)
	got, calls := 0.0, 0
	if err := fs.ReadCellCtx(context.Background(), 7, func(b []byte) error {
		if calls++; int64(len(b)) != fs.LoadedBytes()[7] {
			t.Errorf("handed %d bytes of cell 7, which holds %d", len(b), fs.LoadedBytes()[7])
		}
		return rowcodec.WalkRecords(0, b, func(_ int, rec []byte) error {
			got += decodeF64(rec)
			return nil
		})
	}); err != nil {
		t.Fatal(err)
	}
	if want := float64(7*10 + 7*10 + 1); math.Abs(got-want) > 1e-9 || calls != 1 {
		t.Errorf("cell 7 sum = %v in %d calls, want %v in one", got, calls, want)
	}
}

// transientFile fails every read with ErrTransient, forever.
type transientFile struct {
	pageSize int
	pages    int64
}

func (f *transientFile) PageSize() int { return f.pageSize }
func (f *transientFile) Pages() int64  { return f.pages }
func (f *transientFile) ReadPage(page int64, _ []byte) error {
	return fmt.Errorf("page %d: flaky disk: %w", page, ErrTransient)
}
func (f *transientFile) WritePage(int64, []byte) error { return nil }
func (f *transientFile) Sync() error                   { return nil }
func (f *transientFile) Close() error                  { return nil }

func TestRetryBackoffIsContextAware(t *testing.T) {
	bp, err := NewBufferPool(&transientFile{pageSize: 64, pages: 4}, 2)
	if err != nil {
		t.Fatal(err)
	}
	// An hour of backoff per retry would hang the read for days if the
	// sleeps ignored the context.
	bp.SetRetry(RetryPolicy{MaxRetries: 100, Backoff: time.Hour})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	err = bp.ReadAtCtx(ctx, make([]byte, 8), 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("read = %v, want DeadlineExceeded", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("cancellation took %v; backoff sleeps are not context-aware", took)
	}
}

func TestCloseWhileReadersInFlight(t *testing.T) {
	o := concurrentOrder(t)
	bytes := uniformBytes(o.Len(), 2*rowcodec.FrameSize(8))
	path := filepath.Join(t.TempDir(), "close.db")
	fs, err := CreateFileStore(path, o, bytes, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	loadConcurrentStore(t, fs, o)
	all := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}

	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < 50; k++ {
				_, _, err := sumRegion(context.Background(), fs, all, decodeF64)
				if err != nil {
					if !errors.Is(err, ErrClosed) {
						t.Errorf("reader error %v, want nil or ErrClosed", err)
					}
					return
				}
			}
		}()
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	if err := fs.Close(); err != nil {
		t.Fatalf("Close with readers in flight: %v", err)
	}
	wg.Wait()
	if err := fs.Close(); !errors.Is(err, ErrClosed) {
		t.Errorf("second Close = %v, want ErrClosed", err)
	}
	if err := rowcodec.PutRecord(fs, 0, make([]byte, 8)); !errors.Is(err, ErrClosed) {
		t.Errorf("PutRecord after Close = %v, want ErrClosed", err)
	}
	if _, err := fs.Verify(); !errors.Is(err, ErrClosed) {
		t.Errorf("Verify after Close = %v, want ErrClosed", err)
	}
	if err := readRegion(context.Background(), fs, all, func(int, []byte) error { return nil }); !errors.Is(err, ErrClosed) {
		t.Errorf("read after Close = %v, want ErrClosed", err)
	}
	newPath := filepath.Join(t.TempDir(), "new.db")
	if _, err := MigrateCtx(context.Background(), fs, newPath, o, 4); !errors.Is(err, ErrClosed) {
		t.Errorf("MigrateCtx after Close = %v, want ErrClosed", err)
	}
	if _, err := os.Stat(newPath); !os.IsNotExist(err) {
		t.Errorf("MigrateCtx from a closed store created %s (stat err: %v)", newPath, err)
	}
}

func TestMigrateWhileReadersInFlight(t *testing.T) {
	o := concurrentOrder(t)
	bytes := uniformBytes(o.Len(), 2*rowcodec.FrameSize(8))
	dir := t.TempDir()
	fs, err := CreateFileStore(filepath.Join(dir, "old.db"), o, bytes, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	want := loadConcurrentStore(t, fs, o)
	all := linear.Region{{Lo: 0, Hi: 8}, {Lo: 0, Hi: 8}}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got, _, err := sumRegion(context.Background(), fs, all, decodeF64); err != nil {
					t.Error(err)
					return
				} else if math.Abs(got-want) > 1e-9 {
					t.Errorf("Sum during migrate = %v, want %v", got, want)
					return
				}
			}
		}()
	}
	// Re-cluster onto the column-major order while the readers hammer away.
	s := hierarchy.MustSchema(hierarchy.Binary("A", 3), hierarchy.Binary("B", 3))
	newOrder, err := linear.RowMajor(s, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := MigrateCtx(context.Background(), fs, filepath.Join(dir, "new.db"), newOrder, 16)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	got, _, err := sumRegion(context.Background(), dst, all, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("migrated Sum = %v, want %v", got, want)
	}
}

// TestConcurrentStress is the tier-1 serving stress test: ≥8 goroutines
// issue grid queries against one FileStore with fault injection active,
// random per-query cancellation, admission control, and a concurrent
// graceful shutdown. Every surfaced failure must be one of the typed
// errors of the serving contract, and the store must scrub clean after
// shutdown.
func TestConcurrentStress(t *testing.T) {
	o := concurrentOrder(t)
	bytes := uniformBytes(o.Len(), 2*rowcodec.FrameSize(8))
	dir := t.TempDir()
	path := filepath.Join(dir, "stress.db")

	// Phase 1: build and load single-threaded, without faults.
	fs, err := CreateFileStore(path, o, bytes, 128, 16)
	if err != nil {
		t.Fatal(err)
	}
	loadConcurrentStore(t, fs, o)
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: reopen behind a fault injector. Transient read faults fire
	// in bursts of 2 — under the retry budget of 3, so they are always
	// ridden out — and a few read-side bit flips surface as CorruptPageError
	// without persisting damage (the disk bytes stay intact).
	layout, err := NewFileLayout(o, bytes, 128)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := OpenPageFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	var faults []Fault
	for idx := int64(10); idx < 4000; idx += 61 {
		faults = append(faults, Fault{Op: OpRead, Index: idx, Kind: FaultTransient, Repeat: 2})
	}
	for idx := int64(45); idx < 4000; idx += 333 {
		faults = append(faults, Fault{Op: OpRead, Index: idx, Kind: FaultBitFlip})
	}
	fi := NewFaultInjector(pf, 42, faults...)
	fs, err = NewFileStoreOn(fi, o, bytes, 24, loaded)
	if err != nil {
		t.Fatal(err)
	}
	fs.Pool().SetRetry(RetryPolicy{MaxRetries: 3, Backoff: 50 * time.Microsecond})

	adm, err := NewAdmission(8, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}

	allowed := func(err error) bool {
		return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
			errors.Is(err, ErrClosed) || errors.Is(err, ErrCorruptPage) || errors.Is(err, ErrOverloaded)
	}

	const workers = 12
	stop := make(chan struct{})
	var queries, rejected, corrupt, cancelled, writes atomic.Int64
	var wg sync.WaitGroup

	// A writer races every reader: whole-cell replacements through the
	// ingest write path, framed to the same size so the layout and fill
	// state never change while queries, faults, and Close are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(7777))
		buf := make([]byte, 8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cell := rng.Intn(o.Len())
			recs := make([][]byte, 2)
			for i := range recs {
				binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(cell*100+i)))
				recs[i] = append([]byte(nil), buf...)
			}
			err := fs.PutCellBytes(cell, rowcodec.FrameRecords(recs...))
			if err == nil {
				writes.Add(1)
				continue
			}
			if errors.Is(err, ErrClosed) {
				return
			}
			if !allowed(err) {
				t.Errorf("writer: untyped failure: %v", err)
				return
			}
			if errors.Is(err, ErrCorruptPage) {
				corrupt.Add(1)
			}
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Random region.
				r := make(linear.Region, 2)
				for d := 0; d < 2; d++ {
					lo := rng.Intn(8)
					r[d] = linear.Range{Lo: lo, Hi: lo + 1 + rng.Intn(8-lo)}
				}
				// Random cancellation regime.
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				switch rng.Intn(3) {
				case 0:
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(300))*time.Microsecond)
				case 1:
					ctx, cancel = context.WithCancel(ctx)
					delay := time.Duration(rng.Intn(200)) * time.Microsecond
					go func(c context.CancelFunc) {
						time.Sleep(delay)
						c()
					}(cancel)
				}
				weight := layout.Query(r).Pages
				err := adm.Acquire(ctx, weight)
				if err != nil {
					cancel()
					if errors.Is(err, ErrOverloaded) {
						rejected.Add(1)
					} else if !isCtxErr(err) {
						t.Errorf("admission error %v", err)
						return
					}
					continue
				}
				queries.Add(1)
				// Mix sums and plain record walks; on the 24-frame pool each
				// holds a 12-page window, so concurrent readers wait for
				// each other's windows while cancellation, faults and Close
				// race against them.
				switch rng.Intn(3) {
				case 0, 1:
					_, _, err = sumRegion(ctx, fs, r, decodeF64)
				default:
					err = readRegion(ctx, fs, r, func(int, []byte) error { return nil })
				}
				adm.Release(weight)
				cancel()
				if err != nil {
					if errors.Is(err, ErrTransient) {
						t.Errorf("transient error escaped the retry policy: %v", err)
						return
					}
					if !allowed(err) {
						t.Errorf("untyped failure: %v", err)
						return
					}
					if errors.Is(err, ErrCorruptPage) {
						corrupt.Add(1)
					}
					if isCtxErr(err) {
						cancelled.Add(1)
					}
					if errors.Is(err, ErrClosed) {
						return // graceful shutdown reached this worker
					}
				}
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond)
	// Graceful shutdown while the workers are still issuing queries.
	if err := fs.Close(); err != nil {
		t.Fatalf("concurrent graceful Close: %v", err)
	}
	close(stop)
	wg.Wait()
	t.Logf("stress: %d queries, %d writes, %d overload-rejected, %d corrupt, %d cancelled, pool=%+v, admission=%+v",
		queries.Load(), writes.Load(), rejected.Load(), corrupt.Load(), cancelled.Load(), fs.Pool().Stats(), adm.StatsSnapshot())
	if queries.Load() == 0 {
		t.Error("stress loop issued no queries")
	}
	if writes.Load() == 0 {
		t.Error("stress loop completed no writes")
	}

	// Phase 3: post-shutdown scrub over a clean stack — the injected read
	// faults must not have persisted anything to disk.
	pf2, err := OpenPageFile(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := NewFileStoreOn(pf2, o, bytes, 16, loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	rep, err := fs2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		for _, p := range rep.Problems {
			t.Errorf("post-shutdown scrub: %v", p)
		}
	}
}

// TestStressShedsToTypedErrorsUnderPermanentFault double-checks that even a
// permanent read fault surfaces as itself (not a data race or hang) and the
// pool serves other pages normally afterwards.
func TestPermanentFaultDoesNotPoisonPool(t *testing.T) {
	o := rowMajor4x4(t)
	bytes := uniformBytes(o.Len(), rowcodec.FrameSize(8))
	path := filepath.Join(t.TempDir(), "perm.db")
	fs, err := CreateFileStore(path, o, bytes, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for c := 0; c < o.Len(); c++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(c)))
		if err := rowcodec.PutRecord(fs, c, buf); err != nil {
			t.Fatal(err)
		}
	}
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopen behind the injector so the fault lands on a query read, not on
	// the load phase's read-modify-write traffic.
	pf, err := OpenPageFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	fi := NewFaultInjector(pf, 7, Fault{Op: OpRead, Index: 2, Kind: FaultPermanent})
	fs, err = NewFileStoreOn(fi, o, bytes, 4, loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	all := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}
	var firstErr error
	var okAfter bool
	for i := 0; i < 6; i++ {
		_, _, err := sumRegion(context.Background(), fs, all, decodeF64)
		if err != nil && firstErr == nil {
			firstErr = err
		} else if err == nil && firstErr != nil {
			okAfter = true
		}
	}
	if firstErr == nil {
		t.Fatal("permanent fault never surfaced")
	}
	if !errors.Is(firstErr, ErrInjected) {
		t.Errorf("fault surfaced as %v, want ErrInjected chain", firstErr)
	}
	if !okAfter {
		t.Error("pool never recovered after the permanent fault passed")
	}
}

// TestPoolMissWaitsForUnpin: a miss that finds every frame pinned waits for
// a pin to drop instead of failing — for one page and for a span, which
// must give back the frames it took before it waits — and a waiter whose
// context ends returns its context's error.
func TestPoolMissWaitsForUnpin(t *testing.T) {
	o := concurrentOrder(t)
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "wait.db"), o, uniformBytes(o.Len(), 2*rowcodec.FrameSize(8)), 128, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	loadConcurrentStore(t, fs, o)
	bp, ctx := fs.pool, context.Background()
	var held []*frame
	for page := int64(0); page < 3; page++ {
		fr, err := bp.get(ctx, nil, page)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, fr)
	}
	cctx, cancel := context.WithCancel(ctx)
	cancelled := make(chan error, 1)
	go func() {
		_, err := bp.get(cctx, nil, 5)
		cancelled <- err
	}()
	type result struct {
		frames []*frame
		err    error
	}
	one, span := make(chan result, 1), make(chan result, 1)
	go func() {
		fr, err := bp.get(ctx, nil, 3)
		one <- result{[]*frame{fr}, err}
	}()
	go func() {
		var sc spanScratch
		err := bp.getSpan(ctx, nil, 6, 2, &sc)
		span <- result{sc.frames, err}
	}()
	waitFor(t, "misses to queue behind the pins", func() bool {
		bp.mu.Lock()
		defer bp.mu.Unlock()
		return bp.freed != nil
	})
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled waiter returned %v, want context.Canceled", err)
	}
	select {
	case r := <-one:
		t.Fatalf("miss returned %v with every frame pinned", r.err)
	case r := <-span:
		t.Fatalf("span returned %v with every frame pinned", r.err)
	case <-time.After(20 * time.Millisecond):
	}
	bp.unpinSpan(held)
	for _, ch := range []chan result{one, span} {
		r := <-ch
		if r.err != nil {
			t.Fatalf("waiter failed after the unpin: %v", r.err)
		}
		bp.unpinSpan(r.frames)
	}
	if err := bp.Reset(ctx); err != nil {
		t.Errorf("pins left behind: %v", err)
	}
}
