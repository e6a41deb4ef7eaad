package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/linear"
	"repro/internal/rowcodec"
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
	err := fi2.ReadPage(0, buf)
	if !errors.Is(err, ErrTransient) || !errors.Is(err, ErrInjected) {
		t.Fatalf("transient fault err = %v", err)
	}
	if err := fi2.ReadPage(0, buf); err != nil {
		t.Fatalf("retry after transient should succeed: %v", err)
	}

	// Bit flips are deterministic in the seed.
	a := fx.newInjector(t, dir, "a.db", Fault{Op: OpRead, Index: 0, Kind: FaultBitFlip})
	b := fx.newInjector(t, dir, "b.db", Fault{Op: OpRead, Index: 0, Kind: FaultBitFlip})
	ba, bb := make([]byte, 64), make([]byte, 64)
	if err := a.ReadPage(0, ba); err != nil {
		t.Fatal(err)
	}
	if err := b.ReadPage(0, bb); err != nil {
		t.Fatal(err)
	}
	if string(ba) != string(bb) {
		t.Fatal("same seed, same index: flips differ")
	}
	if allZero(ba) {
		t.Fatal("bit flip did not flip anything")
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
