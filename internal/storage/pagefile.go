package storage

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/trace"
)

// PageFile is a fixed-page-size file: the real-disk counterpart of the
// in-memory simulator, with the same page-granular access pattern.
// ReadPage, WritePage, and Sync are safe for concurrent use (they map to
// positioned pread/pwrite on disjoint or idempotent ranges); Close must not
// race with in-flight operations.
//
// Bulk reads (ReadPages) go through a lazily established read-only mmap of
// the file when the platform provides one: a span lands in the caller's
// buffer with one copy out of the page cache and no syscall per window.
// Writes keep using pwrite, which Linux keeps coherent with the mapping (a
// single shared page cache backs both). When mmap is unavailable the bulk
// path falls back to a single positioned read.
type PageFile struct {
	f        *os.File
	pageSize int
	pages    int64

	mapOnce sync.Once
	mapped  []byte // read-only mapping of the whole file; nil if unavailable
}

// CreatePageFile creates (truncating) a page file with the given number of
// zeroed pages.
func CreatePageFile(path string, pageSize int, pages int64) (*PageFile, error) {
	if pageSize <= 0 || pages < 0 {
		return nil, fmt.Errorf("storage: invalid page file geometry %d×%d", pageSize, pages)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(int64(pageSize) * pages); err != nil {
		f.Close()
		return nil, err
	}
	return &PageFile{f: f, pageSize: pageSize, pages: pages}, nil
}

// OpenPageFile opens an existing page file; its size must be a whole number
// of pages.
func OpenPageFile(path string, pageSize int) (*PageFile, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: invalid page size %d", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if fi.Size()%int64(pageSize) != 0 {
		f.Close()
		return nil, fmt.Errorf("storage: %s is %d bytes, not a multiple of the %d-byte page", path, fi.Size(), pageSize)
	}
	return &PageFile{f: f, pageSize: pageSize, pages: fi.Size() / int64(pageSize)}, nil
}

// PageSize returns the file's page size in bytes.
func (pf *PageFile) PageSize() int { return pf.pageSize }

// Pages returns the number of pages in the file.
func (pf *PageFile) Pages() int64 { return pf.pages }

func (pf *PageFile) checkPage(page int64) error {
	if page < 0 || page >= pf.pages {
		return fmt.Errorf("storage: page %d out of range [0,%d)", page, pf.pages)
	}
	return nil
}

// ReadPage fills buf (of PageSize bytes) with the page's contents.
func (pf *PageFile) ReadPage(page int64, buf []byte) error {
	if err := pf.checkPage(page); err != nil {
		return err
	}
	if len(buf) != pf.pageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d", len(buf), pf.pageSize)
	}
	_, err := pf.f.ReadAt(buf, page*int64(pf.pageSize))
	return err
}

// ReadPages fills buf — a whole number of PageSize units — with the
// consecutive pages starting at page, in one positioned read. This is the
// BulkReader fast path the span read stack bottoms out in: one pread per
// readahead window instead of one per page.
func (pf *PageFile) ReadPages(page int64, buf []byte) error {
	if len(buf) == 0 {
		return nil
	}
	if len(buf)%pf.pageSize != 0 {
		return fmt.Errorf("storage: bulk read buffer is %d bytes, not a multiple of the %d-byte page", len(buf), pf.pageSize)
	}
	n := int64(len(buf) / pf.pageSize)
	if page < 0 || page+n > pf.pages {
		return fmt.Errorf("storage: pages [%d,%d) out of range [0,%d)", page, page+n, pf.pages)
	}
	off := page * int64(pf.pageSize)
	if m := pf.mmapped(); m != nil {
		copy(buf, m[off:off+int64(len(buf))])
		return nil
	}
	_, err := pf.f.ReadAt(buf, off)
	return err
}

// MappedPages returns the raw bytes of n consecutive pages straight from
// the file's read-only mapping, or nil when mapping is unavailable.
func (pf *PageFile) MappedPages(page, n int64) []byte {
	if page < 0 || n <= 0 || page+n > pf.pages {
		return nil
	}
	m := pf.mmapped()
	if m == nil {
		return nil
	}
	ps := int64(pf.pageSize)
	return m[page*ps : (page+n)*ps]
}

// mmapped returns the file's read-only mapping, establishing it on first
// use. Returns nil (and ReadPages preads instead) if the file is empty or
// the mapping fails.
func (pf *PageFile) mmapped() []byte {
	pf.mapOnce.Do(func() {
		size := int64(pf.pageSize) * pf.pages
		if size <= 0 || size != int64(int(size)) {
			return
		}
		m, err := syscall.Mmap(int(pf.f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
		if err == nil {
			pf.mapped = m
		}
	})
	return pf.mapped
}

// WritePage writes buf (of PageSize bytes) to the page.
func (pf *PageFile) WritePage(page int64, buf []byte) error {
	if err := pf.checkPage(page); err != nil {
		return err
	}
	if len(buf) != pf.pageSize {
		return fmt.Errorf("storage: write buffer is %d bytes, want %d", len(buf), pf.pageSize)
	}
	_, err := pf.f.WriteAt(buf, page*int64(pf.pageSize))
	return err
}

// Sync flushes the file to stable storage.
func (pf *PageFile) Sync() error { return pf.f.Sync() }

// Close closes the underlying file, releasing the bulk-read mapping if one
// was established.
func (pf *PageFile) Close() error {
	if pf.mapped != nil {
		syscall.Munmap(pf.mapped)
		pf.mapped = nil
	}
	return pf.f.Close()
}

// PoolStats counts buffer pool traffic. It is a point-in-time snapshot;
// under concurrent load the fields are individually exact but need not be
// mutually consistent.
type PoolStats struct {
	Hits              int64
	Misses            int64 // physical page loads (one per coalesced miss group)
	Evictions         int64
	Writes            int64 // physical page writes (write-back)
	Retries           int64 // transient I/O errors ridden out by the retry policy
	SingleFlightWaits int64 // goroutines that waited on another goroutine's in-flight load of the same page
}

// BufferPool caches page frames over a PagedFile with LRU replacement and
// write-back, the classic database buffer manager. It is safe for
// concurrent use: a short pool mutex guards the page table and LRU list,
// each frame carries its own latch for data access, and concurrent misses
// on the same page coalesce into a single disk read (single-flight — the
// extra goroutines wait for the first load and are counted in
// PoolStats.SingleFlightWaits). Frames are pinned while a caller copies in
// or out of them, and only unpinned frames are eviction victims; a miss
// that finds every frame pinned waits for an unpin instead of failing.
// Nothing in the pool or above it asks for a frame while holding
// a pin (ReadAt/WriteAt hold one at a time; the read executor releases its
// window before pinning the next, and before blocking on anything else), so
// the wait cannot deadlock; a pool smaller than the pins readers hold at
// once just serializes them.
//
// Transient I/O errors (errors matching ErrTransient) are retried with
// exponential backoff under the pool's RetryPolicy; the backoff sleeps are
// context-aware. All other errors propagate to the caller.
type BufferPool struct {
	pf       PagedFile
	capacity int

	mu     sync.Mutex // guards frames, lru, free, and every frame's pins field
	frames map[int64]*list.Element
	lru    *list.List    // front = most recently used
	free   [][]byte      // page buffers recycled from evicted frames, ≤ capacity
	freed  chan struct{} // non-nil while a miss waits for an unpin; closed by the next one

	retryMu sync.Mutex
	retry   RetryPolicy

	hits, misses, evictions, writes, retries, sfWaits atomic.Int64
}

// frame is one cached page. The pool mutex guards pins and list membership;
// the latch guards data and dirty. Latch holders always hold a pin, so a
// frame with zero pins has no latch holder and may be evicted.
type frame struct {
	page  int64
	data  []byte
	mu    sync.Mutex // latch
	dirty bool
	pins  int
	ready chan struct{} // closed once the initial load finished
	err   error         // load error; set before ready is closed
}

// NewBufferPool wraps a paged file with a pool of the given frame capacity
// under the DefaultRetry policy.
func NewBufferPool(pf PagedFile, capacity int) (*BufferPool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("storage: buffer pool capacity %d must be positive", capacity)
	}
	return &BufferPool{
		pf:       pf,
		capacity: capacity,
		frames:   make(map[int64]*list.Element, capacity),
		lru:      list.New(),
		retry:    DefaultRetry,
	}, nil
}

// SetRetry replaces the pool's transient-error retry policy.
func (bp *BufferPool) SetRetry(rp RetryPolicy) {
	bp.retryMu.Lock()
	bp.retry = rp
	bp.retryMu.Unlock()
}

// Stats returns a snapshot of the pool's traffic counters.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{
		Hits:              bp.hits.Load(),
		Misses:            bp.misses.Load(),
		Evictions:         bp.evictions.Load(),
		Writes:            bp.writes.Load(),
		Retries:           bp.retries.Load(),
		SingleFlightWaits: bp.sfWaits.Load(),
	}
}

// ResetStats clears the pool's global traffic counters. Per-query
// accounting (SumCtx, WithPoolTally) uses request-local tallies, never
// deltas over these counters, so resetting mid-flight cannot corrupt any
// query's reported stats — it only rewinds the process-lifetime totals
// that Stats (and the /metrics endpoint) expose.
func (bp *BufferPool) ResetStats() {
	bp.hits.Store(0)
	bp.misses.Store(0)
	bp.evictions.Store(0)
	bp.writes.Store(0)
	bp.retries.Store(0)
	bp.sfWaits.Store(0)
}

// withRetry runs op, retrying transient failures per the pool's policy with
// doubling backoff. The sleeps select on ctx, so a cancelled caller stops
// retrying immediately.
func (bp *BufferPool) withRetry(ctx context.Context, tally *PoolTally, op func() error) error {
	bp.retryMu.Lock()
	rp := bp.retry
	bp.retryMu.Unlock()
	backoff := rp.Backoff
	for attempt := 0; ; attempt++ {
		err := op()
		if err == nil || attempt >= rp.MaxRetries || !errors.Is(err, ErrTransient) {
			return err
		}
		bp.retries.Add(1)
		if tally != nil {
			tally.retries.Add(1)
		}
		if backoff > 0 {
			// The backoff sleep is where a retried request's latency hides;
			// give it a span so slow-query forensics can see it.
			sp := trace.StartLeaf(ctx, trace.KindRetry, "")
			sp.SetAttr("attempt", int64(attempt+1))
			sp.SetAttr("backoff_ns", int64(backoff))
			t := time.NewTimer(backoff)
			select {
			case <-t.C:
				sp.End()
			case <-ctx.Done():
				t.Stop()
				sp.SetError(ctx.Err())
				sp.End()
				return ctx.Err()
			}
			backoff *= 2
		} else if err := ctx.Err(); err != nil {
			return err
		}
	}
}

// isCtxErr reports whether err is a context cancellation or deadline.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// errPoolPinned is evictLocked's "every frame is pinned": internal, never
// surfaced — the caller waits for an unpin and retries.
var errPoolPinned = errors.New("storage: all pool frames are pinned")

// abandoned reports whether a coalesced load failed only because its loader
// gave up (its context ended, or it had to back off a fully pinned pool) —
// not because the page is unreadable — so a waiter with a live context
// should load the page itself.
func abandoned(err error) bool { return isCtxErr(err) || err == errPoolPinned }

// awaitUnpin is called with bp.mu held after errPoolPinned: it releases the
// mutex, runs unwind (the caller's cleanup of what it took under it) and
// blocks until some frame's pins drop to zero (or ctx ends). The wake-up
// channel is taken before the mutex is released, so no unpin is missed.
func (bp *BufferPool) awaitUnpin(ctx context.Context, unwind func()) error {
	if bp.freed == nil {
		bp.freed = make(chan struct{})
	}
	freed := bp.freed
	bp.mu.Unlock()
	if unwind != nil {
		unwind()
	}
	select {
	case <-freed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseLocked drops one pin, waking any miss that waits for a victim.
// Called with bp.mu held.
func (bp *BufferPool) releaseLocked(fr *frame) {
	fr.pins--
	if fr.pins == 0 && bp.freed != nil {
		close(bp.freed)
		bp.freed = nil
	}
}

// get returns the page's frame, pinned; the caller must unpin it. Traffic
// is counted in tally (when non-nil) as well as in the pool's counters; the
// caller resolves it from its context once, not per page. A miss
// loads the page outside the pool mutex; concurrent misses on the same page
// wait for the first loader instead of issuing duplicate reads. If the
// loader abandons the load because its own context ended, waiters with a
// live context retry the load themselves, so one query's cancellation never
// surfaces as another query's error.
func (bp *BufferPool) get(ctx context.Context, tally *PoolTally, page int64) (*frame, error) {
	for {
		fr, err := bp.getOnce(ctx, tally, page)
		if err != nil && abandoned(err) && ctx.Err() == nil {
			continue // the coalesced loader gave up, not us: reload
		}
		return fr, err
	}
}

func (bp *BufferPool) getOnce(ctx context.Context, tally *PoolTally, page int64) (*frame, error) {
	bp.mu.Lock()
	if el, ok := bp.frames[page]; ok {
		fr := el.Value.(*frame)
		fr.pins++
		bp.lru.MoveToFront(el)
		bp.mu.Unlock()
		select {
		case <-fr.ready: // already loaded
			bp.hits.Add(1)
			if tally != nil {
				tally.hits.Add(1)
			}
		default: // someone else's load is in flight: wait for it
			bp.sfWaits.Add(1)
			if tally != nil {
				tally.sfWaits.Add(1)
			}
			select {
			case <-fr.ready:
			case <-ctx.Done():
				bp.unpin(fr)
				return nil, ctx.Err()
			}
		}
		if fr.err != nil {
			bp.unpin(fr)
			return nil, fr.err
		}
		return fr, nil
	}
	if bp.lru.Len() >= bp.capacity {
		if err := bp.evictLocked(ctx, tally); err == errPoolPinned {
			if err := bp.awaitUnpin(ctx, nil); err != nil {
				return nil, err
			}
			return nil, errPoolPinned // get retries
		} else if err != nil {
			bp.mu.Unlock()
			return nil, err
		}
	}
	bp.misses.Add(1)
	if tally != nil {
		tally.misses.Add(1)
	}
	fr := &frame{page: page, data: bp.frameDataLocked(), pins: 1, ready: make(chan struct{})}
	bp.frames[page] = bp.lru.PushFront(fr)
	bp.mu.Unlock()

	sp := trace.StartLeaf(ctx, trace.KindPageLoad, "")
	sp.SetAttr("page", page)
	if err := bp.withRetry(ctx, tally, func() error { return bp.pf.ReadPage(page, fr.data) }); err != nil {
		sp.SetError(err)
		sp.End()
		// Failed loads leave no frame behind: drop it so a later access
		// retries from disk, then wake the waiters with the error.
		bp.mu.Lock()
		if el, ok := bp.frames[page]; ok && el.Value.(*frame) == fr {
			bp.lru.Remove(el)
			delete(bp.frames, page)
		}
		bp.releaseLocked(fr)
		bp.mu.Unlock()
		fr.err = err
		close(fr.ready)
		return nil, err
	}
	sp.End()
	if tally != nil {
		tally.physRead(page)
	}
	close(fr.ready)
	return fr, nil
}

// unpin releases a pin taken by get.
func (bp *BufferPool) unpin(fr *frame) {
	bp.mu.Lock()
	bp.releaseLocked(fr)
	bp.mu.Unlock()
}

// unpinSpan releases the pins of all frames under one pool-mutex round.
func (bp *BufferPool) unpinSpan(frames []*frame) {
	bp.mu.Lock()
	for _, fr := range frames {
		bp.releaseLocked(fr)
	}
	bp.mu.Unlock()
}

// frameDataLocked returns a page-sized buffer for a new frame, recycling an
// evicted frame's buffer when one is available. Called with bp.mu held.
func (bp *BufferPool) frameDataLocked() []byte {
	if n := len(bp.free); n > 0 {
		d := bp.free[n-1]
		bp.free[n-1] = nil
		bp.free = bp.free[:n-1]
		return d
	}
	return make([]byte, bp.pf.PageSize())
}

// getSpan returns pinned, ready frames for the n consecutive pages starting
// at lo, appended to frames (a caller-owned scratch slice). Resident pages
// are pinned in one pool-mutex pass; absent pages are claimed as loading
// frames and then fetched with as few physical reads as possible — each
// contiguous group of absent pages becomes one PageSpanReader call. Claims
// are published (ready closed) before the call waits on any other
// goroutine's in-flight load, so two overlapping spans cannot deadlock on
// each other. On error no pins are retained. The caller must release the
// returned frames with unpinSpan. Frames are returned in page order:
// frames[base+i] holds page lo+i.
func (bp *BufferPool) getSpan(ctx context.Context, tally *PoolTally, lo int64, n int, frames []*frame) ([]*frame, error) {
	sr, _ := bp.pf.(PageSpanReader)
	if sr == nil || n == 1 {
		// No span capability underneath (e.g. a bare test PagedFile):
		// degrade to per-page gets with identical semantics.
		base := len(frames)
		for i := 0; i < n; i++ {
			fr, err := bp.get(ctx, tally, lo+int64(i))
			if err != nil {
				bp.unpinSpan(frames[base:])
				return nil, err
			}
			frames = append(frames, fr)
		}
		return frames, nil
	}

	base := len(frames)
	var claimed []*frame // absent pages this call must load, ascending
	bp.mu.Lock()
	for p := lo; p < lo+int64(n); p++ {
		if el, ok := bp.frames[p]; ok {
			fr := el.Value.(*frame)
			fr.pins++
			bp.lru.MoveToFront(el)
			frames = append(frames, fr)
			continue
		}
		if bp.lru.Len() >= bp.capacity {
			if err := bp.evictLocked(ctx, tally); err != nil {
				// Unwind everything taken so far: pins on resident frames
				// and the claims (which nobody has loaded).
				for _, fr := range claimed {
					if el, ok := bp.frames[fr.page]; ok && el.Value.(*frame) == fr {
						bp.lru.Remove(el)
						delete(bp.frames, fr.page)
					}
				}
				for _, fr := range frames[base:] {
					bp.releaseLocked(fr)
				}
				publish := func() {
					for _, fr := range claimed {
						fr.err = err
						close(fr.ready)
					}
				}
				if err != errPoolPinned {
					bp.mu.Unlock()
					publish()
					return nil, err
				}
				// Every frame is pinned: give back what this call took, wait
				// for an unpin, and start the span over.
				bp.misses.Add(-int64(len(claimed)))
				if tally != nil {
					tally.misses.Add(-int64(len(claimed)))
				}
				if err := bp.awaitUnpin(ctx, publish); err != nil {
					return nil, err
				}
				return bp.getSpan(ctx, tally, lo, n, frames[:base])
			}
		}
		bp.misses.Add(1)
		if tally != nil {
			tally.misses.Add(1)
		}
		fr := &frame{page: p, data: bp.frameDataLocked(), pins: 1, ready: make(chan struct{})}
		bp.frames[p] = bp.lru.PushFront(fr)
		claimed = append(claimed, fr)
		frames = append(frames, fr)
	}
	bp.mu.Unlock()

	// Load our claims: one span read per contiguous page group. Claims must
	// all be published (ready closed, with or without error) before this
	// call returns or blocks on anyone else's load.
	for i := 0; i < len(claimed); {
		j := i + 1
		for j < len(claimed) && claimed[j].page == claimed[j-1].page+1 {
			j++
		}
		group := claimed[i:j]
		bufs := make([][]byte, len(group))
		for k, fr := range group {
			bufs[k] = fr.data
		}
		sp := trace.StartLeaf(ctx, trace.KindPageLoad, "")
		sp.SetAttr("page", group[0].page)
		sp.SetAttr("pages", int64(len(group)))
		err := bp.withRetry(ctx, tally, func() error { return sr.ReadPageSpan(group[0].page, bufs) })
		if err != nil {
			sp.SetError(err)
			sp.End()
			bp.failSpanClaims(claimed[i:], err)
			bp.unpinSpanExcept(frames[base:], claimed[i:])
			return nil, err
		}
		sp.End()
		for _, fr := range group {
			if tally != nil {
				tally.physRead(fr.page)
			}
			close(fr.ready)
		}
		i = j
	}

	// Resolve resident frames whose load (by another goroutine) is still in
	// flight. Our own claims are already published, so waiting here cannot
	// deadlock against a peer doing the same dance on an overlapping span.
	// Counting mirrors getOnce: a resident frame that was ready is a hit, a
	// wait on a peer's load is a single-flight wait, our claims were already
	// counted as misses.
	ci := 0
	for idx := base; idx < len(frames); idx++ {
		fr := frames[idx]
		if ci < len(claimed) && claimed[ci] == fr {
			ci++
			continue
		}
		select {
		case <-fr.ready:
			bp.hits.Add(1)
			if tally != nil {
				tally.hits.Add(1)
			}
		default:
			bp.sfWaits.Add(1)
			if tally != nil {
				tally.sfWaits.Add(1)
			}
			select {
			case <-fr.ready:
			case <-ctx.Done():
				bp.unpinSpan(frames[base:])
				return nil, ctx.Err()
			}
		}
		if fr.err != nil {
			// The peer's load failed. Mirror get(): if it was only the
			// peer's cancellation and our context is live, reload the page
			// ourselves; otherwise propagate.
			err := fr.err
			bp.unpin(fr)
			if abandoned(err) && ctx.Err() == nil {
				fr2, err2 := bp.get(ctx, tally, fr.page)
				if err2 == nil {
					frames[idx] = fr2
					continue
				}
				err = err2
			}
			copy(frames[idx:], frames[idx+1:])
			frames = frames[:len(frames)-1]
			bp.unpinSpan(frames[base:])
			return nil, err
		}
	}
	return frames, nil
}

// failSpanClaims drops unloaded claim frames from the pool and publishes the
// error to any waiters, mirroring getOnce's failed-load path.
func (bp *BufferPool) failSpanClaims(claims []*frame, err error) {
	bp.mu.Lock()
	for _, fr := range claims {
		if el, ok := bp.frames[fr.page]; ok && el.Value.(*frame) == fr {
			bp.lru.Remove(el)
			delete(bp.frames, fr.page)
		}
		bp.releaseLocked(fr)
	}
	bp.mu.Unlock()
	for _, fr := range claims {
		fr.err = err
		close(fr.ready)
	}
}

// unpinSpanExcept unpins every frame in frames that is not in skip (whose
// pins were already dropped by failSpanClaims).
func (bp *BufferPool) unpinSpanExcept(frames, skip []*frame) {
	bp.mu.Lock()
outer:
	for _, fr := range frames {
		for _, s := range skip {
			if fr == s {
				continue outer
			}
		}
		bp.releaseLocked(fr)
	}
	bp.mu.Unlock()
}

// Reset empties the pool: dirty frames are written back and the file synced
// (via FlushCtx), then every frame is dropped and its buffer recycled. The
// next access to any page misses and reloads it from the file, exactly as if
// the pool had just been created — without discarding the store above it or
// any prepared state it holds. Reset is a quiescent-point operation (cold
// benchmark passes, maintenance windows): it fails if any frame is pinned
// rather than yank pages out from under a live reader.
func (bp *BufferPool) Reset(ctx context.Context) error {
	if err := bp.FlushCtx(ctx); err != nil {
		return err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	for el := bp.lru.Front(); el != nil; el = el.Next() {
		if fr := el.Value.(*frame); fr.pins > 0 {
			return fmt.Errorf("storage: reset with page %d pinned", fr.page)
		}
	}
	for el := bp.lru.Front(); el != nil; el = el.Next() {
		fr := el.Value.(*frame)
		if fr.data != nil && len(bp.free) < bp.capacity {
			bp.free = append(bp.free, fr.data)
			fr.data = nil
		}
	}
	bp.frames = make(map[int64]*list.Element, bp.capacity)
	bp.lru = list.New()
	return nil
}

// evictLocked writes back and drops the least recently used unpinned frame.
// Called with the pool mutex held; the write-back happens under it, which
// keeps a concurrent miss on the victim page from reading stale bytes.
func (bp *BufferPool) evictLocked(ctx context.Context, tally *PoolTally) error {
	for el := bp.lru.Back(); el != nil; el = el.Prev() {
		fr := el.Value.(*frame)
		if fr.pins > 0 {
			continue // pinned or still loading (loaders hold a pin)
		}
		// pins == 0 ⇒ no latch holder, so data/dirty are stable here.
		// Eviction work is attributed to the request whose miss forced it.
		if fr.dirty {
			if err := bp.withRetry(ctx, tally, func() error { return bp.pf.WritePage(fr.page, fr.data) }); err != nil {
				return err
			}
			bp.writes.Add(1)
			if tally != nil {
				tally.writes.Add(1)
			}
			fr.dirty = false
		}
		bp.lru.Remove(el)
		delete(bp.frames, fr.page)
		// Recycle the victim's buffer: with pins == 0 nobody holds the
		// latch, so no reader can still be copying out of it.
		if fr.data != nil && len(bp.free) < bp.capacity {
			bp.free = append(bp.free, fr.data)
			fr.data = nil
		}
		bp.evictions.Add(1)
		if tally != nil {
			tally.evictions.Add(1)
		}
		return nil
	}
	return errPoolPinned
}

// ReadAt copies n bytes at the byte offset into dst, faulting pages as
// needed.
func (bp *BufferPool) ReadAt(dst []byte, off int64) error {
	return bp.ReadAtCtx(context.Background(), dst, off)
}

// ReadAtCtx is ReadAt with cancellation: the context is checked between
// page accesses and during load waits and retry backoffs.
func (bp *BufferPool) ReadAtCtx(ctx context.Context, dst []byte, off int64) error {
	ps := int64(bp.pf.PageSize())
	tally := tallyFrom(ctx)
	for len(dst) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		fr, err := bp.get(ctx, tally, off/ps)
		if err != nil {
			return err
		}
		fr.mu.Lock()
		n := copy(dst, fr.data[off%ps:])
		fr.mu.Unlock()
		bp.unpin(fr)
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}

// WriteAt copies src to the byte offset through the pool (write-back: pages
// are marked dirty and reach the file on eviction or Flush).
func (bp *BufferPool) WriteAt(src []byte, off int64) error {
	return bp.WriteAtCtx(context.Background(), src, off)
}

// WriteAtCtx is WriteAt with cancellation.
func (bp *BufferPool) WriteAtCtx(ctx context.Context, src []byte, off int64) error {
	ps := int64(bp.pf.PageSize())
	tally := tallyFrom(ctx)
	for len(src) > 0 {
		if err := ctx.Err(); err != nil {
			return err
		}
		fr, err := bp.get(ctx, tally, off/ps)
		if err != nil {
			return err
		}
		fr.mu.Lock()
		n := copy(fr.data[off%ps:], src)
		fr.dirty = true
		fr.mu.Unlock()
		bp.unpin(fr)
		src = src[n:]
		off += int64(n)
	}
	return nil
}

// Flush writes every dirty frame back to the file and syncs it. On error
// the failed frame stays dirty, so a later Flush retries it; no write is
// ever silently dropped. Flush pins one frame at a time, so concurrent
// readers keep making progress while it runs.
func (bp *BufferPool) Flush() error { return bp.FlushCtx(context.Background()) }

// FlushCtx is Flush with cancellation.
func (bp *BufferPool) FlushCtx(ctx context.Context) error {
	tally := tallyFrom(ctx)
	bp.mu.Lock()
	pages := make([]int64, 0, bp.lru.Len())
	for el := bp.lru.Front(); el != nil; el = el.Next() {
		pages = append(pages, el.Value.(*frame).page)
	}
	bp.mu.Unlock()
	var firstErr error
	for _, page := range pages {
		bp.mu.Lock()
		el, ok := bp.frames[page]
		if !ok {
			bp.mu.Unlock()
			continue // evicted since the snapshot: its write-back already happened
		}
		fr := el.Value.(*frame)
		fr.pins++
		bp.mu.Unlock()
		<-fr.ready
		if fr.err == nil {
			fr.mu.Lock()
			if fr.dirty {
				if err := bp.withRetry(ctx, tally, func() error { return bp.pf.WritePage(fr.page, fr.data) }); err != nil {
					if firstErr == nil {
						firstErr = fmt.Errorf("storage: flushing page %d: %w", fr.page, err)
					}
				} else {
					bp.writes.Add(1)
					fr.dirty = false
				}
			}
			fr.mu.Unlock()
		}
		bp.unpin(fr)
	}
	if firstErr != nil {
		return firstErr
	}
	if err := bp.withRetry(ctx, tally, bp.pf.Sync); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	return nil
}
