package storage

import (
	"context"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/linear"
	"repro/internal/trace"
)

// This file is the read pipeline: every query is planned once (plan.go)
// and executed by one run body. The body walks a seek run's cells in disk
// order holding one pin and one latch per page — consecutive pages are
// pinned a window at a time with one pool round trip and, for runs of
// misses, one physical span read — and hands over each filled or overlaid
// cell's framed bytes once: in place when the cell lies inside one page,
// gathered into the run's spill buffer when it straddles pages. Schedules
// differ only in who runs the body and where cells go:
//
//   - Parallelism <= 1 runs it over the plan's runs in order on the caller's
//     goroutine and hands fn each cell.
//   - Parallelism > 1 has run-claiming workers run it and copy cells into
//     pooled chunk buffers; the caller drains the runs in order, so fn still
//     sees exact disk order on its own goroutine.
//
// In-place contract: fn runs under a page latch and must not retain the
// cell's bytes or call back into the store. Record-at-a-time readers
// (ReadPlanCtx and its wrappers) are walkRecords over this stream.
//
// Accounting: each run is one fragment. It counts its pool traffic in a
// private tally whose physical reads ascend page by page, so its seek count
// is the number of maximal runs of consecutive pages read; runs are
// page-disjoint, so merging the fragment tallies into the request tally
// sums pages and seeks exactly, on either schedule. The request tally, the
// trace and the overlay are resolved once per request; cancellation is
// polled once per page.
//
// Pin budget: a query holds at most one window of pins per worker — one
// page at Parallelism <= 1; otherwise up to Readahead pages, at most
// MaxSpanPages, clamped so all workers' windows together never exceed half
// the pool. A worker releases its window before it pins the next one or
// blocks on its consumer, so a pool smaller than the pins concurrent
// queries want makes them wait for each other (BufferPool), never fail.

// ReadOptions tunes the read executor.
type ReadOptions struct {
	// Parallelism bounds the concurrent fragment (seek run) fetches of one
	// query. Values <= 1 read the runs in order on the caller's goroutine.
	Parallelism int
	// Readahead is the window, in pages, a fragment pins and (for a run of
	// misses) loads with one physical read. Values <= 1 read page by page;
	// the knob only takes effect when Parallelism > 1.
	Readahead int
}

// streamChunkBytes is the copy schedule's target chunk size: workers flush
// a chunk to the consumer once it holds about this many record bytes
// (always at whole-cell boundaries).
const streamChunkBytes = 64 << 10

// execution is one request's resolved read state, shared by its runs.
type execution struct {
	fs     *FileStore
	plan   *QueryPlan
	tally  *PoolTally // the request tally, or nil
	ov     func(cell int) ([]byte, bool)
	fn     func(cell int, framed []byte) error
	traced bool
	window int
}

// runScratch is per-worker reusable state, so steady-state runs allocate
// nothing per cell, page or run.
type runScratch struct {
	tally PoolTally   // the current fragment's traffic
	spill []byte      // a page-straddling cell, gathered
	span  spanScratch // the pinned window
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// ReadPlanCtx executes a prepared plan: every record of its region is
// delivered to fn in exact disk order on the caller's goroutine, under the
// schedule opt selects — ReadPlanCellsCtx with each cell's framing walked.
func (fs *FileStore) ReadPlanCtx(ctx context.Context, p *QueryPlan, opt ReadOptions, fn func(cell int, record []byte) error) error {
	return fs.ReadPlanCellsCtx(ctx, p, opt, func(cell int, framed []byte) error {
		return walkRecords(cell, framed, fn)
	})
}

// ReadPlanCellsCtx executes a prepared plan a cell at a time: every filled
// or overlaid cell of its region is handed to fn once, as its framed
// records (see FrameRecords), in exact disk order on the caller's
// goroutine, under the schedule opt selects. A plan whose write epoch has
// passed is re-planned here, under the same read lock the read runs under.
// When ctx carries a trace, each seek run is recorded as a fragment span
// with its tally (pages_read, seeks, pool_hits) attached. Returns ErrClosed
// if the store has been closed.
func (fs *FileStore) ReadPlanCellsCtx(ctx context.Context, p *QueryPlan, opt ReadOptions, fn func(cell int, framed []byte) error) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return ErrClosed
	}
	if p.epoch != fs.epoch {
		p, _ = fs.lookupPlan(p.region)
	}
	x := &execution{fs: fs, plan: p, tally: tallyFrom(ctx), ov: fs.overlayFn(), fn: fn, traced: trace.Active(ctx)}
	workers := max(1, min(opt.Parallelism, len(p.runs)))
	x.window = 1
	if opt.Parallelism > 1 {
		x.window = max(1, min(opt.Readahead, MaxSpanPages, fs.pool.capacity/(2*workers)))
	}
	if workers > 1 {
		return x.parallel(ctx, workers)
	}
	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	for i := range p.runs {
		if err := x.fragment(ctx, &p.runs[i], sc, nil); err != nil {
			return err
		}
	}
	return nil
}

// parallel fetches the runs with a worker set while cells are delivered
// in run order on the caller's goroutine. Cancelling the query stops every
// worker promptly; a worker's I/O error does not cancel its siblings, and
// the error reported is the first in run order, so failures are
// deterministic.
func (x *execution) parallel(ctx context.Context, workers int) error {
	runs := x.plan.runs
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	defer func() {
		cancel()
		wg.Wait()
	}()
	chans := make([]chan *runChunk, len(runs))
	for i := range chans {
		// Two chunks of slack let a worker run ahead of the consumer without
		// buffering a whole run.
		chans[i] = make(chan *runChunk, 2)
	}
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := scratchPool.Get().(*runScratch)
			defer scratchPool.Put(sc)
			for wctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(runs) {
					return
				}
				out := chunkStream{ch: chans[i]}
				if err := x.fragment(wctx, &runs[i], sc, &out); err != nil {
					select {
					case out.ch <- &runChunk{err: err}:
					case <-wctx.Done():
					}
				}
				close(out.ch)
			}
		}()
	}
	for _, ch := range chans {
		for open := true; open; {
			var chunk *runChunk
			select {
			case chunk, open = <-ch:
			case <-ctx.Done():
				return ctx.Err()
			}
			if !open {
				break
			}
			if chunk.err != nil {
				return chunk.err
			}
			for _, cc := range chunk.cells {
				if err := x.fn(cc.cell, cc.data); err != nil {
					return err
				}
			}
			chunk.recycle()
		}
	}
	return nil
}

// fragment runs one seek run under fragment accounting: a fresh fragment
// tally, a fragment span when traced, the inflight gauge, and — at the end
// — the merge into the request tally plus the fragment observer. A run
// with no filled cell is only worth visiting to probe an overlay.
func (x *execution) fragment(ctx context.Context, run *planRun, sc *runScratch, out *chunkStream) error {
	if run.pageHi < run.pageLo && x.ov == nil {
		return nil
	}
	fs := x.fs
	fs.parInflight.Add(1)
	start := time.Now()
	sc.tally.reset()
	var sp trace.SpanRef
	if x.traced {
		ctx, sp = trace.Start(ctx, trace.KindFragment, "")
	}
	err := x.readRun(ctx, run, sc, out)
	ft := &sc.tally
	if x.traced {
		sp.SetAttr("cells", int64(run.cells))
		sp.SetAttr("bytes", run.bytes)
		sp.SetAttr("pages_read", ft.misses.Load())
		sp.SetAttr("seeks", ft.seeks.Load())
		sp.SetAttr("pool_hits", ft.hits.Load())
		if d := ft.deltaHits.Load(); d > 0 {
			sp.SetAttr("delta_cells", d)
		}
		sp.SetError(err)
		sp.End()
	}
	if x.tally != nil {
		x.tally.merge(ft)
	}
	fs.parInflight.Add(-1)
	if obs := fs.fragObs.Load(); obs != nil {
		(*obs)(ft.misses.Load(), time.Since(start).Seconds())
	}
	return err
}

// pageCursor is the run body's hold on the pool: the pinned window of
// consecutive pages and, within it, the one latched frame.
type pageCursor struct {
	pool              *BufferPool
	fr                *frame // latched; covers bytes [pageBase, pageEnd)
	pageBase, pageEnd int64
	win               *spanScratch // win.frames are pinned; pages [winLo, winEnd)
	winLo, winEnd     int64
}

// release drops the latch and the window's pins. The next seek re-pins.
func (c *pageCursor) release() {
	if c.fr != nil {
		c.fr.mu.Unlock()
		c.fr = nil
	}
	if len(c.win.frames) > 0 {
		c.pool.unpinSpan(c.win.frames)
		c.win.frames = c.win.frames[:0]
	}
	c.pageEnd, c.winEnd = 0, 0
}

// seek latches the page holding byte off. Past the pinned window it first
// swaps the window for the next one: up to window pages, never past lastPage
// (the run's last), pinned in one pool round trip with runs of misses loaded
// by one span read. Cancellation is polled here, once per page.
func (c *pageCursor) seek(ctx context.Context, t *PoolTally, off, lastPage int64, window int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if c.fr != nil {
		c.fr.mu.Unlock()
		c.fr = nil
	}
	u := int64(c.pool.pf.PageSize())
	page := off / u
	if page >= c.winEnd {
		c.release()
		n := min(lastPage-page+1, int64(window))
		if err := c.pool.getSpan(ctx, t, page, int(n), c.win); err != nil {
			return err
		}
		c.winLo, c.winEnd = page, page+n
	}
	c.fr = c.win.frames[page-c.winLo]
	c.fr.mu.Lock()
	c.pageBase, c.pageEnd = page*u, (page+1)*u
	return nil
}

// readRun is the run body: it walks the run's cells in disk order and hands
// each filled cell's bytes, read from latched frames, either to x.fn (out ==
// nil) or into out's chunk buffers. x.fn gets a cell that lies inside one
// page in place and one that straddles pages gathered into sc.spill. Cells
// present in the overlay are served from it and their base range is never
// read, so a half-applied base rewrite behind the overlay is invisible.
// Pool traffic lands in sc.tally. On return no latch and no pin is held.
func (x *execution) readRun(ctx context.Context, run *planRun, sc *runScratch, out *chunkStream) (err error) {
	fs := x.fs
	t := &sc.tally
	c := pageCursor{pool: fs.pool, win: &sc.span}
	defer c.release()
	for _, fg := range x.plan.frags[run.fragLo:run.fragHi] {
		for pos := fg.lo; pos < fg.hi; pos++ {
			e := &fs.dir[pos]
			cell := int(e.cell)
			if x.ov != nil {
				if ob, ok := x.ov(cell); ok {
					t.deltaHit()
					if out != nil {
						out.add(cell, ob)
					} else if err = x.fn(cell, ob); err != nil {
						return err
					}
					continue
				}
			}
			n := int64(e.fill)
			if n == 0 {
				continue
			}
			var dst []byte
			if out != nil {
				// Reserving may release the cursor, so it comes before the seek.
				if dst, err = out.reserve(ctx, cell, n, &c); err != nil {
					return err
				}
			}
			off := e.start
			if off >= c.pageEnd {
				if err = c.seek(ctx, t, off, run.pageHi, x.window); err != nil {
					return err
				}
			}
			b := c.fr.data[off-c.pageBase:]
			if out == nil {
				if int64(len(b)) >= n {
					if err = x.fn(cell, b[:n:n]); err != nil {
						return err
					}
					continue
				}
				if int64(cap(sc.spill)) < n {
					sc.spill = make([]byte, n)
				}
				dst = sc.spill[:n]
			}
			for {
				k := copy(dst, b)
				if dst = dst[k:]; len(dst) == 0 {
					break
				}
				off += int64(k)
				if err = c.seek(ctx, t, off, run.pageHi, x.window); err != nil {
					return err
				}
				b = c.fr.data[off-c.pageBase:]
			}
			if out == nil {
				if err = x.fn(cell, sc.spill[:n:n]); err != nil {
					return err
				}
			}
		}
	}
	if out != nil {
		return out.flush(ctx, &c)
	}
	return nil
}

// runChunk is a batch of copied-out cells streamed from a run's worker to
// the consuming goroutine, or a terminal error.
type runChunk struct {
	cells []chunkCell
	buf   []byte // backing store of the base cells' data
	err   error
}

type chunkCell struct {
	cell int
	data []byte
}

var chunkPool = sync.Pool{New: func() any { return &runChunk{buf: make([]byte, 0, streamChunkBytes)} }}

// recycle returns a drained chunk to the pool.
func (c *runChunk) recycle() {
	clear(c.cells) // drop the overlay references
	c.cells, c.buf = c.cells[:0], c.buf[:0]
	chunkPool.Put(c)
}

// chunkStream is the copy schedule's sink for one run: cells accumulate in
// the current chunk, which is sent to the consumer when full.
type chunkStream struct {
	ch  chan *runChunk
	cur *runChunk
}

func (s *chunkStream) chunk() *runChunk {
	if s.cur == nil {
		s.cur = chunkPool.Get().(*runChunk)
	}
	return s.cur
}

// add appends an overlay-served cell; overlay bytes are immutable, so the
// chunk references them without copying.
func (s *chunkStream) add(cell int, data []byte) {
	c := s.chunk()
	c.cells = append(c.cells, chunkCell{cell, data})
}

// reserve returns n bytes of chunk buffer for the cell's data, flushing the
// current chunk first when it cannot hold them.
func (s *chunkStream) reserve(ctx context.Context, cell int, n int64, c *pageCursor) ([]byte, error) {
	if cur := s.cur; cur != nil && int64(len(cur.buf))+n > int64(cap(cur.buf)) && len(cur.cells) > 0 {
		if err := s.flush(ctx, c); err != nil {
			return nil, err
		}
	}
	cur := s.chunk()
	if int64(cap(cur.buf)) < n {
		cur.buf = make([]byte, 0, n)
	}
	dst := cur.buf[len(cur.buf) : int64(len(cur.buf))+n]
	cur.buf = cur.buf[:len(cur.buf)+int(n)]
	cur.cells = append(cur.cells, chunkCell{cell, dst})
	return dst, nil
}

// flush sends the current chunk to the consumer. When the consumer is
// behind, the worker gives up its latch and pins before it blocks: a
// goroutine that holds frames must stay runnable, or queries waiting for a
// latch or an unpinned frame could wait on each other's consumers.
func (s *chunkStream) flush(ctx context.Context, c *pageCursor) error {
	if s.cur == nil {
		return nil
	}
	select {
	case s.ch <- s.cur:
		s.cur = nil
		return nil
	default:
	}
	c.release()
	select {
	case s.ch <- s.cur:
		s.cur = nil
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// walkRecords parses the length-prefixed framing of one cell's filled
// bytes, calling fn per record.
func walkRecords(cell int, buf []byte, fn func(cell int, record []byte) error) error {
	for len(buf) > 0 {
		rec, rest, err := NextRecord(cell, buf)
		if err != nil {
			return err
		}
		if err := fn(cell, rec); err != nil {
			return err
		}
		buf = rest
	}
	return nil
}

// NextRecord splits the first record off a non-empty run of the cell's
// framed bytes (see FrameRecords): its payload, and the bytes after it. A
// cell's records are NextRecord applied until nothing is left; a reader of
// ReadPlanCellsCtx that walks the framing itself calls it for the error
// when the framing is broken, so the error reads the same.
func NextRecord(cell int, framed []byte) (rec, rest []byte, err error) {
	if len(framed) < 4 {
		return nil, nil, fmt.Errorf("storage: corrupt record header in cell %d", cell)
	}
	end := 4 + uint64(binary.LittleEndian.Uint32(framed))
	if end > uint64(len(framed)) {
		return nil, nil, fmt.Errorf("storage: truncated record in cell %d", cell)
	}
	return framed[4:end:end], framed[end:], nil
}

// ReadQueryOptCtx plans the region and executes the plan: every record is
// delivered to fn in exact disk order on the caller's goroutine, with the
// region's seek runs fetched under the schedule opt selects.
func (fs *FileStore) ReadQueryOptCtx(ctx context.Context, r linear.Region, opt ReadOptions, fn func(cell int, record []byte) error) error {
	p, err := fs.Plan(ctx, r)
	if err != nil {
		return err
	}
	return fs.ReadPlanCtx(ctx, p, opt, fn)
}

// ReadQueryCtx is ReadQueryOptCtx under the zero ReadOptions: runs in order
// on the caller's goroutine, page by page.
func (fs *FileStore) ReadQueryCtx(ctx context.Context, r linear.Region, fn func(cell int, record []byte) error) error {
	return fs.ReadQueryOptCtx(ctx, r, ReadOptions{}, fn)
}

// Scan is ReadQueryCtx without a deadline.
func (fs *FileStore) Scan(r linear.Region, fn func(cell int, record []byte) error) error {
	return fs.ReadQueryCtx(context.Background(), r, fn)
}

// ReadCellCtx streams the records of a single cell through the executor's
// run body under the same cancellation contract as ReadQueryCtx. It is not
// a fragment: no span, no observer call.
func (fs *FileStore) ReadCellCtx(ctx context.Context, cell int, fn func(record []byte) error) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	pos := fs.layout.order.PosOf(cell)
	b := planBuilder{fs: fs, p: new(QueryPlan)}
	b.addFragment(pos, pos+1)
	x := &execution{fs: fs, plan: b.p, ov: fs.overlayFn(), window: 1,
		fn: func(cell int, framed []byte) error {
			return walkRecords(cell, framed, func(_ int, record []byte) error { return fn(record) })
		}}
	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	sc.tally.reset()
	err := x.readRun(ctx, &b.p.runs[0], sc, nil)
	if t := tallyFrom(ctx); t != nil {
		t.merge(&sc.tally)
	}
	return err
}

// SumOptCtx executes an aggregate grid query under the given context and
// schedule, returning the total and the pool traffic this query alone
// generated. Records are decoded in disk order on the caller's goroutine,
// so the sum is bit-identical on every schedule. Attribution is exact under
// concurrency: the traffic is counted in a request-local tally
// (WithPoolTally) rather than as a delta over the shared pool counters, so
// concurrent queries never contaminate each other's stats and a racing
// ResetStats cannot produce negative numbers. A tally the caller installed
// on ctx (callers that also want seek counts install one) is reused.
func (fs *FileStore) SumOptCtx(ctx context.Context, r linear.Region, opt ReadOptions, decode func(record []byte) float64) (float64, PoolStats, error) {
	tally := tallyFrom(ctx)
	if tally == nil {
		tally = new(PoolTally)
		ctx = WithPoolTally(ctx, tally)
	}
	total := 0.0
	err := fs.ReadQueryOptCtx(ctx, r, opt, func(_ int, record []byte) error {
		total += decode(record)
		return nil
	})
	if err != nil {
		return 0, PoolStats{}, err
	}
	return total, tally.Stats(), nil
}

// SumCtx is SumOptCtx under the zero ReadOptions.
func (fs *FileStore) SumCtx(ctx context.Context, r linear.Region, decode func(record []byte) float64) (float64, PoolStats, error) {
	return fs.SumOptCtx(ctx, r, ReadOptions{}, decode)
}

// Sum is SumCtx without a deadline.
func (fs *FileStore) Sum(r linear.Region, decode func(record []byte) float64) (float64, PoolStats, error) {
	return fs.SumCtx(context.Background(), r, decode)
}

// ParallelInflight returns the number of fragment fetches currently in
// flight, across all queries.
func (fs *FileStore) ParallelInflight() int64 { return fs.parInflight.Load() }

// SetFragmentObserver installs fn to be called once per completed fragment
// fetch with the fragment's physical page reads and wall time. nil removes
// the observer. The observer runs on the goroutine that fetched the
// fragment and must be cheap and safe for concurrent use.
func (fs *FileStore) SetFragmentObserver(fn func(pagesRead int64, seconds float64)) {
	if fn == nil {
		fs.fragObs.Store(nil)
		return
	}
	fs.fragObs.Store(&fn)
}
