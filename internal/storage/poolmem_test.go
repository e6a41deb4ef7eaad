package storage

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/hierarchy"
	"repro/internal/linear"
)

// heapAlloc returns the live heap after a full collection.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// inSlab reports whether the frame's buffer lies inside the pool's mapping.
func inSlab(bp *BufferPool, fr *frame) bool {
	if len(bp.slab) == 0 {
		return false
	}
	lo := uintptr(unsafe.Pointer(&bp.slab[0]))
	at := uintptr(unsafe.Pointer(&fr.data[0]))
	return at >= lo && at+uintptr(len(fr.data)) <= lo+uintptr(len(bp.slab))
}

// poolRoundTrip is the read/write suite both frame sources must pass: every
// page written through the pool (more pages than frames, so dirty frames are
// evicted), read back, flushed, dropped by Reset and read again from the file.
func poolRoundTrip(t *testing.T, bp *BufferPool, pages int64) {
	t.Helper()
	ps := int64(bp.pf.PageSize())
	for p := int64(0); p+1 < pages; p++ {
		if err := bp.WriteAt([]byte{byte(p + 1), byte(p + 2)}, p*ps+ps-1); err != nil {
			t.Fatalf("write across pages %d/%d: %v", p, p+1, err)
		}
	}
	check := func(when string) {
		t.Helper()
		got := make([]byte, 2)
		for p := int64(0); p+1 < pages; p++ {
			if err := bp.ReadAt(got, p*ps+ps-1); err != nil {
				t.Fatalf("%s: read across pages %d/%d: %v", when, p, p+1, err)
			}
			if got[0] != byte(p+1) || got[1] != byte(p+2) {
				t.Fatalf("%s: pages %d/%d hold %v, want [%d %d]", when, p, p+1, got, byte(p+1), byte(p+2))
			}
		}
	}
	check("through the pool")
	if err := bp.Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	check("after Reset, from the file")
}

// TestPoolFramesOffHeap: page buffers come out of one anonymous mapping, so
// touching frames does not grow the Go heap by their size; eviction and Reset
// hand the same slab buffers around instead of mapping or allocating more; and
// a pool whose mapping cannot be made passes the same suite on heap frames.
func TestPoolFramesOffHeap(t *testing.T) {
	const pageSize, pages, frames = 4096, 96, 64
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "slab.db"), pageSize, pages)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	bp, err := NewBufferPool(pf, frames)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()
	if len(bp.slab) != frames*pageSize {
		t.Fatalf("slab is %d bytes, want %d", len(bp.slab), frames*pageSize)
	}
	if got := bp.SlabBytes(); got != 0 {
		t.Errorf("an untouched pool reports %d slab bytes", got)
	}
	const k = 48
	before := heapAlloc()
	one := make([]byte, 1)
	for p := int64(0); p < k; p++ {
		if err := bp.ReadAt(one, p*pageSize); err != nil {
			t.Fatal(err)
		}
	}
	after := heapAlloc()
	if grew := int64(after) - int64(before); grew >= k*pageSize/4 {
		t.Errorf("touching %d frames grew the heap by %d bytes, want < %d", k, grew, k*pageSize/4)
	}
	if got := bp.SlabBytes(); got != k*pageSize {
		t.Errorf("slab bytes = %d after touching %d frames, want %d", got, k, k*pageSize)
	}

	poolRoundTrip(t, bp, pages) // 96 pages through 64 frames: evicts, then resets
	slab := &bp.slab[0]
	for p := int64(0); p < pages; p++ {
		fr, err := bp.get(context.Background(), nil, p)
		if err != nil {
			t.Fatal(err)
		}
		if !inSlab(bp, fr) {
			t.Fatalf("page %d sits in a buffer outside the slab after eviction and Reset", p)
		}
		bp.unpin(fr)
	}
	if &bp.slab[0] != slab || bp.carved != frames || bp.SlabBytes() != frames*pageSize {
		t.Errorf("pool re-mapped or over-carved: carved %d of %d frames, %d slab bytes", bp.carved, frames, bp.SlabBytes())
	}

	// A capacity no address space can back: the mapping fails, frames are
	// heap slices, and the suite above passes unchanged.
	heap, err := NewBufferPool(pf, 1<<45)
	if err != nil {
		t.Fatal(err)
	}
	defer heap.Close()
	if heap.slab != nil {
		t.Skip("the kernel mapped 2^57 bytes; no mapping failure to exercise")
	}
	poolRoundTrip(t, heap, pages)
	if got := heap.SlabBytes(); got != 0 {
		t.Errorf("heap-backed pool reports %d slab bytes", got)
	}
}

// failOnce is a PagedFile whose reads of one page block until the gate opens
// and then fail; every other read succeeds at once.
type failOnce struct {
	gatedFile
	bad int64
	err error
}

func (f *failOnce) ReadPages(page int64, _ ...[]byte) error {
	if page != f.bad {
		return nil
	}
	<-f.gate
	return f.err
}

// TestPoolRecyclesFrames: once the pool is full a miss takes the evicted
// frame whole — struct, buffer and load signal — so it allocates nothing,
// through get and through getSpan; and the frame of a failed load is not
// handed to another page while a waiter still holds it.
func TestPoolRecyclesFrames(t *testing.T) {
	ctx := context.Background()
	t.Run("miss allocates nothing", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector makes sync.Pool drop entries")
		}
		const pages = 64
		pf, err := CreatePageFile(filepath.Join(t.TempDir(), "recycle.db"), 256, pages)
		if err != nil {
			t.Fatal(err)
		}
		defer pf.Close()
		cf, err := NewChecksumFile(pf)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := NewBufferPool(cf, 4)
		if err != nil {
			t.Fatal(err)
		}
		defer bp.Close()
		var tally PoolTally
		var sc spanScratch
		next := int64(0) // cycling through 64 pages on 4 frames: every access misses
		if err := bp.getSpan(ctx, &tally, next, 4, &sc); err != nil {
			t.Fatal(err)
		}
		bp.unpinSpan(sc.frames)
		next = 4
		if a := testing.AllocsPerRun(200, func() {
			fr, err := bp.get(ctx, &tally, next)
			if err != nil {
				t.Fatal(err)
			}
			bp.unpin(fr)
			next = (next + 1) % pages
		}); a != 0 {
			t.Errorf("get: a miss on a full pool allocates %v objects, want 0", a)
		}
		if a := testing.AllocsPerRun(200, func() {
			next = (next + 2) % (pages - 1)
			if err := bp.getSpan(ctx, &tally, next, 2, &sc); err != nil {
				t.Fatal(err)
			}
			bp.unpinSpan(sc.frames)
		}); a != 0 {
			t.Errorf("getSpan: a window of misses on a full pool allocates %v objects, want 0", a)
		}
		st := bp.Stats()
		if st.Hits != 0 || st.Misses < 600 || st.Evictions != st.Misses-4 || bp.carved != 4 {
			t.Errorf("the loops did not miss on a full pool: %+v, %d frames carved", st, bp.carved)
		}
	})

	t.Run("failed load's frame waits for its waiter", func(t *testing.T) {
		boom := errors.New("boom")
		f := &failOnce{gatedFile: gatedFile{pageSize: 64, pages: 16, gate: make(chan struct{})}, bad: 7, err: boom}
		bp, err := NewBufferPool(f, 1)
		if err != nil {
			t.Fatal(err)
		}
		defer bp.Close()
		loader := make(chan error, 1)
		go func() {
			_, err := bp.get(ctx, nil, 7)
			loader <- err
		}()
		// Join the load the way a coalesced waiter does: pin the loading frame.
		var held *frame
		waitFor(t, "the load of page 7 to start", func() bool {
			bp.mu.Lock()
			defer bp.mu.Unlock()
			if held = bp.table[7]; held != nil {
				held.pins++
			}
			return held != nil
		})
		close(f.gate)
		if err := <-loader; !errors.Is(err, boom) {
			t.Fatalf("loader returned %v, want the load error", err)
		}
		if err := bp.awaitLoad(ctx, held); !errors.Is(err, boom) {
			t.Fatalf("waiter saw %v, want the load error", err)
		}
		// The only frame is still ours: the next miss must wait, not reuse it.
		next := make(chan *frame, 1)
		go func() {
			fr, err := bp.get(ctx, nil, 8)
			if err != nil {
				t.Error(err)
			}
			next <- fr
		}()
		select {
		case fr := <-next:
			t.Fatalf("page 8 was given frame %p while a waiter held the failed frame %p", fr, held)
		case <-time.After(20 * time.Millisecond):
		}
		if held.err != boom || held.page != 7 {
			t.Errorf("the held frame was reused: page %d, err %v", held.page, held.err)
		}
		bp.unpin(held)
		if fr := <-next; fr != held {
			t.Errorf("page 8 got frame %p, want the recycled frame %p", fr, held)
		} else {
			bp.unpin(fr)
		}
	})
}

// TestCloseWithPinnedFrameRefusesUnmap: closing a pool while a caller still
// holds a frame returns the typed error and leaves the slab mapped — the
// holder can still touch its bytes — and closing again after the unpin
// unmaps it exactly once.
func TestCloseWithPinnedFrameRefusesUnmap(t *testing.T) {
	pf, err := CreatePageFile(filepath.Join(t.TempDir(), "pinned.db"), 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	bp, err := NewBufferPool(pf, 2)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := bp.get(context.Background(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Close(); !errors.Is(err, ErrFramePinned) {
		t.Fatalf("Close with a pinned frame = %v, want ErrFramePinned", err)
	}
	fr.mu.Lock()
	fr.data[0]++ // faults if the slab went away
	fr.mu.Unlock()
	bp.unpin(fr)
	if err := bp.Close(); err != nil {
		t.Fatalf("Close after the unpin: %v", err)
	}
	if bp.slab != nil {
		t.Error("slab still mapped after Close")
	}
	if err := bp.Close(); err != nil {
		t.Errorf("a second Close = %v, want nil (nothing left to unmap)", err)
	}
}

// TestOpenFileStoreBytesPerCell: what an open store keeps per cell is the
// order's two int32 tables and the 16-byte directory entry — 24 bytes — plus
// a fixed allowance for size-class rounding and the store's fixed state.
func TestOpenFileStoreBytesPerCell(t *testing.T) {
	s := hierarchy.MustSchema(
		hierarchy.Dimension{Name: "A", Fanouts: []int{10, 32}},
		hierarchy.Dimension{Name: "B", Fanouts: []int{10, 32}},
	)
	cells := s.NumCells() // 102,400
	bytes := uniformBytes(cells, 16)
	path := filepath.Join(t.TempDir(), "cells.db")
	before := heapAlloc()
	o, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := CreateFileStore(path, o, bytes, DefaultPageSize, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	after := heapAlloc()
	const perCell, fixed = 24, 64 << 10
	if kept := int64(after) - int64(before); kept > int64(perCell*cells+fixed) {
		t.Errorf("order + layout + store retain %d bytes for %d cells (%.1f B/cell), want ≤ %d B/cell + %d",
			kept, cells, float64(kept)/float64(cells), perCell, fixed)
	}
	dir, _ := fs.ResidentBytes()
	if want := int64(16 * (cells + 1)); dir != want || o.TableBytes() != int64(8*cells) {
		t.Errorf("directory %d B, order tables %d B; want %d and %d", dir, o.TableBytes(), want, 8*cells)
	}
	runtime.KeepAlive(o)
}
