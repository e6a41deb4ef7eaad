package storage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/trace"
)

// PageFile is a fixed-page-size file on disk, the bottom of the storage
// stack. ReadPages, WritePage, and Sync are safe for concurrent use (they
// map to positioned pread/pwrite on disjoint or idempotent ranges); Close
// must not race with in-flight operations.
type PageFile struct {
	f        *os.File
	pageSize int
	pages    int64
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

// ReadPages fills bufs, each a whole number of PageSize units, with the
// consecutive pages starting at page: one positioned read per buf.
func (pf *PageFile) ReadPages(page int64, bufs ...[]byte) error {
	for _, buf := range bufs {
		if len(buf)%pf.pageSize != 0 {
			return fmt.Errorf("storage: read buffer is %d bytes, not a multiple of the %d-byte page", len(buf), pf.pageSize)
		}
		n := int64(len(buf) / pf.pageSize)
		if page < 0 || page+n > pf.pages {
			return fmt.Errorf("storage: pages [%d,%d) out of range [0,%d)", page, page+n, pf.pages)
		}
		if _, err := pf.f.ReadAt(buf, page*int64(pf.pageSize)); err != nil {
			return err
		}
		page += n
	}
	return nil
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

// Close closes the underlying file.
func (pf *PageFile) Close() error { return pf.f.Close() }

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
// concurrent use: a short pool mutex guards the page table and the LRU ring,
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
// Memory: page buffers are carved in address order, on first use, from one
// anonymous mapping of capacity × PageSize bytes, so the collector never sees
// them and an untouched frame costs nothing (heap slices when the mapping
// cannot be made). A frame — struct, buffer, load state — is made once and
// then only changes hands: eviction gives the victim straight to the page
// that forced it, so a miss on a full pool allocates nothing.
//
// Transient I/O errors (errors matching ErrTransient) are retried with
// exponential backoff under the pool's RetryPolicy; the backoff sleeps are
// context-aware. All other errors propagate to the caller.
type BufferPool struct {
	pf       PagedFile
	capacity int

	mu     sync.Mutex       // guards everything below and every frame's pool-side fields
	table  map[int64]*frame // page → the frame in the ring that holds it
	lru    frame            // ring sentinel: lru.next is the most recently used frame, lru.prev the least
	free   *frame           // frames no page holds (after Reset or a failed load), linked through next
	slab   []byte           // the mapping buffers are carved from; nil when it could not be made
	carved int              // frames made so far, ≤ capacity
	freed  chan struct{}    // non-nil while a miss waits for an unpin; closed by the next one

	retryMu sync.Mutex
	retry   RetryPolicy

	spare atomic.Pointer[spanScratch] // get's scratch between calls; a get that finds it taken makes its own

	hits, misses, evictions, writes, retries, sfWaits atomic.Int64
	dirty                                             atomic.Int64 // frames holding writes the file has not seen
}

// frame is one cached page. The latch guards data and dirty; the pool mutex
// guards the rest. Latch holders always hold a pin, so a frame with zero
// pins has no latch holder and may be evicted.
type frame struct {
	page  int64
	data  []byte
	mu    sync.Mutex // latch
	dirty bool

	pins       int
	loading    bool          // the goroutine that claimed the frame is still reading the page
	err        error         // why the load failed; set as the frame leaves the table
	ready      chan struct{} // made by the first goroutine to wait out the load, closed when it ends
	prev, next *frame
}

// ErrFramePinned marks a BufferPool.Close refused because a caller still
// holds a frame: the slab stays mapped rather than fault under a reader.
var ErrFramePinned = errors.New("storage: buffer pool closed with a frame pinned")

// NewBufferPool wraps a paged file with a pool of the given frame capacity
// under the DefaultRetry policy.
func NewBufferPool(pf PagedFile, capacity int) (*BufferPool, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("storage: buffer pool capacity %d must be positive", capacity)
	}
	bp := &BufferPool{pf: pf, capacity: capacity, table: make(map[int64]*frame, min(capacity, 4096)), retry: DefaultRetry}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	if ps := pf.PageSize(); capacity <= math.MaxInt/ps {
		// Lazily faulted: the mapping reserves addresses, not memory.
		bp.slab, _ = syscall.Mmap(-1, 0, capacity*ps, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	}
	return bp, nil
}

// SlabBytes returns the bytes of the frame mapping touched so far — what the
// pool adds to the resident set beside the Go heap (0 when frames are heap
// slices). Frames are carved in address order and kept, so it only grows.
func (bp *BufferPool) SlabBytes() int64 {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.slab == nil {
		return 0
	}
	return int64(bp.carved) * int64(bp.pf.PageSize())
}

// Close unmaps the frame slab and forgets every page. A FileStore closes its
// pool only after its readers have drained: should a frame still be pinned,
// Close refuses with ErrFramePinned and leaves the mapping in place.
func (bp *BufferPool) Close() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr := bp.pinnedLocked(); fr != nil {
		return fmt.Errorf("%w: page %d", ErrFramePinned, fr.page)
	}
	clear(bp.table)
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	bp.free, bp.carved = nil, 0
	slab := bp.slab
	bp.slab = nil
	if slab == nil {
		return nil
	}
	return syscall.Munmap(slab)
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
// accounting (WithPoolTally) uses request-local tallies, never
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

// errPoolPinned is claimLocked's "no frame can be had until someone unpins":
// internal, never surfaced — the caller waits for an unpin and retries.
var errPoolPinned = errors.New("storage: all pool frames are pinned")

// abandoned reports whether a coalesced load failed only because its loader
// gave up (its context ended, or it had to back off a fully pinned pool) —
// not because the page is unreadable — so a waiter with a live context
// should load the page itself.
func abandoned(err error) bool { return isCtxErr(err) || err == errPoolPinned }

// awaitUnpin is called with bp.mu held after errPoolPinned: it releases the
// mutex and blocks until some frame's pins drop to zero (or ctx ends). The
// wake-up channel is taken under the mutex, so no unpin is missed.
func (bp *BufferPool) awaitUnpin(ctx context.Context) error {
	if bp.freed == nil {
		bp.freed = make(chan struct{})
	}
	freed := bp.freed
	bp.mu.Unlock()
	select {
	case <-freed:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// releaseLocked drops one pin, waking any miss that waits for a frame. The
// last pin off a frame whose load failed recycles it: until then a waiter may
// still be reading the error out of it. Called with bp.mu held.
func (bp *BufferPool) releaseLocked(fr *frame) {
	fr.pins--
	if fr.pins > 0 {
		return
	}
	if fr.err != nil {
		fr.err = nil
		fr.next, bp.free = bp.free, fr
	}
	if bp.freed != nil {
		close(bp.freed)
		bp.freed = nil
	}
}

// unlinkLocked takes fr out of the LRU ring; touchLocked (re)inserts it at
// the most recently used end.
func (bp *BufferPool) unlinkLocked(fr *frame) {
	fr.prev.next, fr.next.prev = fr.next, fr.prev
	fr.prev, fr.next = nil, nil
}

func (bp *BufferPool) touchLocked(fr *frame) {
	if fr.prev != nil {
		fr.prev.next, fr.next.prev = fr.next, fr.prev
	}
	fr.prev, fr.next = &bp.lru, bp.lru.next
	fr.prev.next, fr.next.prev = fr, fr
}

// pinnedLocked returns some pinned frame of the ring, or nil.
func (bp *BufferPool) pinnedLocked() *frame {
	for fr := bp.lru.next; fr != &bp.lru; fr = fr.next {
		if fr.pins > 0 {
			return fr
		}
	}
	return nil
}

// awaitLoad blocks until the load of fr, on which the caller holds a pin, has
// ended, and returns how it ended. Only a goroutine that has to wait makes
// the frame's channel, so an uncontended load never allocates one.
func (bp *BufferPool) awaitLoad(ctx context.Context, fr *frame) error {
	bp.mu.Lock()
	wait := fr.ready
	if fr.loading && wait == nil {
		wait = make(chan struct{})
		fr.ready = wait
	}
	bp.mu.Unlock()
	if wait != nil {
		select {
		case <-wait:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	return fr.err
}

// claimLocked puts page in the table on a frame of its own, pinned once and
// marked loading; the caller reads the page into it and ends the load with
// finishLoads. The frame is a recycled one, a new one while fewer than
// capacity exist, or else the eviction victim. errPoolPinned when every frame
// is pinned (or still held by the waiters of a failed load).
func (bp *BufferPool) claimLocked(ctx context.Context, tally *PoolTally, page int64) (*frame, error) {
	fr := bp.free
	switch {
	case fr != nil:
		bp.free, fr.next = fr.next, nil
	case bp.carved < bp.capacity:
		fr = new(frame)
		if ps := bp.pf.PageSize(); bp.slab != nil {
			fr.data = bp.slab[bp.carved*ps : (bp.carved+1)*ps : (bp.carved+1)*ps]
		} else {
			fr.data = make([]byte, ps)
		}
		bp.carved++
	default:
		var err error
		if fr, err = bp.evictLocked(ctx, tally); err != nil {
			return nil, err
		}
	}
	fr.page, fr.pins, fr.loading = page, 1, true
	bp.table[page] = fr
	bp.touchLocked(fr)
	bp.misses.Add(1)
	if tally != nil {
		tally.misses.Add(1)
	}
	return fr, nil
}

// evictLocked writes back the least recently used unpinned frame — under the
// pool mutex, which keeps a concurrent miss on its page from reading stale
// bytes — takes it out of the table and returns it. The work is attributed to
// the request whose miss forced it.
func (bp *BufferPool) evictLocked(ctx context.Context, tally *PoolTally) (*frame, error) {
	for fr := bp.lru.prev; fr != &bp.lru; fr = fr.prev {
		if fr.pins > 0 {
			continue // pinned or still loading (loaders hold a pin)
		}
		// pins == 0 ⇒ no latch holder, so data/dirty are stable here.
		if fr.dirty {
			if err := bp.withRetry(ctx, tally, func() error { return bp.pf.WritePage(fr.page, fr.data) }); err != nil {
				return nil, err
			}
			bp.writes.Add(1)
			if tally != nil {
				tally.writes.Add(1)
			}
			fr.dirty = false
			bp.dirty.Add(-1)
		}
		bp.unlinkLocked(fr)
		delete(bp.table, fr.page)
		bp.evictions.Add(1)
		if tally != nil {
			tally.evictions.Add(1)
		}
		return fr, nil
	}
	return nil, errPoolPinned
}

// finishLoads ends the loads of claims (frames this goroutine claimed and has
// not published yet) in one pool-mutex round. With err nil the pages are in:
// the frames stop loading and their waiters wake. Otherwise — the one unwind
// of a failed or never started load — the frames leave the table, so a later
// access retries from disk, their waiters wake to err, and every pin in
// pinned (the claims' own and, for a span, its other frames') is dropped.
func (bp *BufferPool) finishLoads(claims, pinned []*frame, err error) {
	bp.mu.Lock()
	bp.finishLoadsLocked(claims, pinned, err)
	bp.mu.Unlock()
}

func (bp *BufferPool) finishLoadsLocked(claims, pinned []*frame, err error) {
	for _, fr := range claims {
		fr.loading = false
		if err != nil {
			bp.unlinkLocked(fr)
			delete(bp.table, fr.page)
			fr.err = err
		}
		if fr.ready != nil {
			close(fr.ready)
			fr.ready = nil
		}
	}
	if err != nil {
		for _, fr := range pinned {
			bp.releaseLocked(fr)
		}
	}
}

// get returns the page's frame, pinned; the caller must unpin it. It is a
// one-page getSpan on scratch the pool keeps between calls (a sync.Pool
// would drop it at random under the race detector), so a get allocates
// nothing unless another runs at the same time; the store's writes, which
// get serves, hold the store's lock.
func (bp *BufferPool) get(ctx context.Context, tally *PoolTally, page int64) (*frame, error) {
	sc := bp.spare.Swap(nil)
	if sc == nil {
		sc = new(spanScratch)
	}
	defer bp.spare.Store(sc)
	if err := bp.getSpan(ctx, tally, page, 1, sc); err != nil {
		return nil, err
	}
	return sc.frames[0], nil
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

// spanScratch is getSpan's caller-owned working memory, reused from span to
// span so a window of misses allocates nothing.
type spanScratch struct {
	frames []*frame // the span: frames[i] holds page lo+i, pinned and loaded
	claims []*frame // the absent pages this call loads, ascending
	bufs   [][]byte // one contiguous group of claims, as ReadPages takes it
}

// getSpan leaves pinned, loaded frames for the n consecutive pages starting
// at lo in sc.frames. Traffic is counted in tally (when non-nil) as well as
// in the pool's counters; the caller resolves it from its context once, not
// per page. Resident pages are pinned in one pool-mutex pass; absent pages
// are claimed as loading frames and then fetched outside the mutex with as
// few physical reads as possible — each contiguous group of absent pages
// becomes one ReadPages call. Concurrent misses on a page wait for the
// goroutine that claimed it instead of issuing duplicate reads. Claims are
// published before the call waits on any other goroutine's in-flight load,
// so two overlapping spans cannot deadlock on each other. If a load it waits
// for is abandoned because the loader's own context ended, a caller with a
// live context loads the page itself, so one query's cancellation never
// surfaces as another query's error. On error no pin is retained and
// sc.frames is empty; otherwise the caller releases the span with
// unpinSpan(sc.frames).
func (bp *BufferPool) getSpan(ctx context.Context, tally *PoolTally, lo int64, n int, sc *spanScratch) (err error) {
	sc.frames = sc.frames[:0]
	defer func() {
		if err != nil {
			sc.frames = sc.frames[:0]
		}
	}()

	// A resident frame whose page is in is a hit, one still loading a
	// single-flight wait, a claim a miss.
	var hits, waits int64
	for {
		sc.frames, sc.claims = sc.frames[:0], sc.claims[:0]
		hits, waits = 0, 0
		bp.mu.Lock()
		for p := lo; p < lo+int64(n); p++ {
			fr := bp.table[p]
			if fr == nil {
				if fr, err = bp.claimLocked(ctx, tally, p); err != nil {
					break
				}
				sc.claims = append(sc.claims, fr)
			} else {
				if fr.loading {
					waits++
				} else {
					hits++
				}
				fr.pins++
				bp.touchLocked(fr)
			}
			sc.frames = append(sc.frames, fr)
		}
		if err == nil {
			bp.mu.Unlock()
			break
		}
		// No frame for page p: give back everything this call took — the
		// pins on resident frames and the claims, which nobody has loaded.
		bp.finishLoadsLocked(sc.claims, sc.frames, err)
		if err != errPoolPinned {
			bp.mu.Unlock()
			return err
		}
		// Every frame is pinned: wait for an unpin and start the span over.
		bp.misses.Add(-int64(len(sc.claims)))
		if tally != nil {
			tally.misses.Add(-int64(len(sc.claims)))
		}
		if err = bp.awaitUnpin(ctx); err != nil {
			return err
		}
	}
	if hits > 0 {
		bp.hits.Add(hits)
		if tally != nil {
			tally.hits.Add(hits)
		}
	}
	if waits > 0 {
		bp.sfWaits.Add(waits)
		if tally != nil {
			tally.sfWaits.Add(waits)
		}
	}

	// Load our claims: one span read per contiguous page group.
	for i := 0; i < len(sc.claims); {
		j := i + 1
		for j < len(sc.claims) && sc.claims[j].page == sc.claims[j-1].page+1 {
			j++
		}
		group := sc.claims[i:j]
		sc.bufs = sc.bufs[:0]
		for _, fr := range group {
			sc.bufs = append(sc.bufs, fr.data)
		}
		sp := trace.StartLeaf(ctx, trace.KindPageLoad, "")
		sp.SetAttr("page", group[0].page)
		sp.SetAttr("pages", int64(len(group)))
		err = bp.withRetry(ctx, tally, func() error { return bp.pf.ReadPages(group[0].page, sc.bufs...) })
		sp.SetError(err)
		sp.End()
		if err != nil {
			bp.finishLoads(sc.claims[i:], sc.frames, err)
			return err
		}
		bp.finishLoads(group, nil, nil)
		if tally != nil {
			for _, fr := range group {
				tally.physRead(fr.page)
			}
		}
		i = j
	}
	if waits == 0 {
		return nil
	}

	// Wait out the loads other goroutines had in flight on our resident
	// frames. Our own claims are already published, so waiting here cannot
	// deadlock against a peer doing the same dance on an overlapping span.
	for idx, fr := range sc.frames {
		if err = bp.awaitLoad(ctx, fr); err == nil {
			continue
		}
		// Our context ended or the peer's load failed. If it was only the
		// peer's cancellation and our context is live, reload the page
		// ourselves; otherwise propagate.
		if abandoned(err) && ctx.Err() == nil {
			bp.unpin(fr)
			if sc.frames[idx], err = bp.get(ctx, tally, lo+int64(idx)); err == nil {
				continue
			}
			sc.frames = append(sc.frames[:idx], sc.frames[idx+1:]...)
		}
		bp.unpinSpan(sc.frames)
		return err
	}
	return nil
}

// Reset empties the pool: dirty frames are written back and the file synced
// (via FlushCtx), then every frame lets go of its page and waits, buffer and
// all, for the next miss. The next access to any page misses and reloads it
// from the file, exactly as if the pool had just been created — without
// discarding the store above it or any prepared state it holds. Reset is a
// quiescent-point operation (cold benchmark passes, maintenance windows): it
// fails if any frame is pinned rather than yank pages out from under a live
// reader.
func (bp *BufferPool) Reset(ctx context.Context) error {
	if err := bp.FlushCtx(ctx); err != nil {
		return err
	}
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if fr := bp.pinnedLocked(); fr != nil {
		return fmt.Errorf("storage: reset with page %d pinned", fr.page)
	}
	for fr := bp.lru.next; fr != &bp.lru; {
		next := fr.next
		fr.prev, fr.next, bp.free = nil, bp.free, fr
		fr = next
	}
	bp.lru.prev, bp.lru.next = &bp.lru, &bp.lru
	clear(bp.table)
	return nil
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
		if !fr.dirty {
			bp.dirty.Add(1)
		}
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
	pages := make([]int64, 0, len(bp.table))
	for fr := bp.lru.next; fr != &bp.lru; fr = fr.next {
		pages = append(pages, fr.page)
	}
	bp.mu.Unlock()
	var firstErr error
	for _, page := range pages {
		bp.mu.Lock()
		fr := bp.table[page]
		if fr == nil || fr.loading {
			// Evicted since the snapshot: its write-back already happened.
			// Loading: its bytes are coming off the disk right now.
			bp.mu.Unlock()
			continue
		}
		fr.pins++
		bp.mu.Unlock()
		fr.mu.Lock()
		if fr.dirty {
			if err := bp.withRetry(ctx, tally, func() error { return bp.pf.WritePage(fr.page, fr.data) }); err != nil {
				if firstErr == nil {
					firstErr = fmt.Errorf("storage: flushing page %d: %w", fr.page, err)
				}
			} else {
				bp.writes.Add(1)
				fr.dirty = false
				bp.dirty.Add(-1)
			}
		}
		fr.mu.Unlock()
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
