package storage

import (
	"context"
	"sync"
	"time"

	"repro/internal/linear"
	"repro/internal/trace"
)

// This file is the read pipeline: every query is planned once (plan.go)
// and executed by one run body on the caller's goroutine, over the plan's
// seek runs in disk order. The body walks a run's cells holding one pin
// window and one page latch — consecutive pages are pinned a window at a
// time with one pool round trip and, for runs of misses, loaded with one
// physical span read — and hands over each filled or overlaid cell's bytes
// once: in place when the cell lies inside one page, gathered into the
// run's spill buffer when it straddles pages.
//
// In-place contract: fn runs under a page latch and must not retain the
// cell's bytes or call back into the store. Record-at-a-time readers walk
// each cell's records themselves (rowcodec.Records).
//
// Accounting: each run is one fragment. It counts its pool traffic in a
// private tally whose physical reads ascend page by page, so its seek count
// is the number of maximal runs of consecutive pages read; runs are
// page-disjoint, so merging the fragment tallies into the request tally
// sums pages and seeks exactly. The request tally, the trace and the overlay
// are resolved once per request; cancellation is polled once per page.
//
// Pin budget: a query holds at most one window of pins — spanWindow pages,
// at most MaxSpanPages and at most half the pool. The body releases its
// window before it pins the next one, so a pool smaller than the pins
// concurrent queries want makes them wait for each other (BufferPool),
// never fail.

// ReadOptions is accepted and ignored by ReadQueryOptCtx.
//
// Deprecated: every read runs one schedule, sized by the pool. The type is
// kept only for the benchmark module, whose re-baseline removes its last
// use (ROADMAP item 1); it goes then.
type ReadOptions struct {
	Parallelism int
	Readahead   int
}

// execution is one request's resolved read state, shared by its runs.
type execution struct {
	fs     *FileStore
	plan   *QueryPlan
	tally  *PoolTally // the request tally, or nil
	ov     func(cell int) ([]byte, bool)
	fn     func(cell int, b []byte) error
	traced bool
	window int
}

// runScratch is per-request reusable state, so steady-state runs allocate
// nothing per cell, page or run.
type runScratch struct {
	tally PoolTally   // the current fragment's traffic
	spill []byte      // a page-straddling cell, gathered
	span  spanScratch // the pinned window
}

var scratchPool = sync.Pool{New: func() any { return new(runScratch) }}

// ReadPlanCellsCtx executes a prepared plan a cell at a time: every filled
// or overlaid cell of its region is handed to fn once, as its bytes, in
// exact disk order on the caller's goroutine. A plan whose write epoch has passed is re-planned here, under
// the same read lock the read runs under. When ctx carries a trace, each
// seek run is recorded as a fragment span with its tally (pages_read,
// seeks, pool_hits) attached. Returns ErrClosed if the store has been
// closed.
func (fs *FileStore) ReadPlanCellsCtx(ctx context.Context, p *QueryPlan, fn func(cell int, b []byte) error) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return ErrClosed
	}
	if p.epoch != fs.epoch {
		p, _ = fs.lookupPlan(p.region)
	}
	x := &execution{fs: fs, plan: p, tally: tallyFrom(ctx), ov: fs.overlayFn(), fn: fn, traced: trace.Active(ctx), window: fs.spanWindow()}
	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	for i := range p.runs {
		if err := x.fragment(ctx, &p.runs[i], sc); err != nil {
			return err
		}
	}
	return nil
}

// spanWindow is the pages a read pins, and for a run of misses loads, at a
// time: MaxSpanPages, or half the pool when that is smaller, so two
// queries' windows always fit beside each other.
func (fs *FileStore) spanWindow() int {
	return max(1, min(MaxSpanPages, fs.pool.capacity/2))
}

// fragment runs one seek run under fragment accounting: a fresh fragment
// tally, a fragment span when traced, and — at the end — the merge into the
// request tally plus the fragment observer. A run with no filled cell is
// only worth visiting to probe an overlay.
func (x *execution) fragment(ctx context.Context, run *planRun, sc *runScratch) error {
	if run.pageHi < run.pageLo && x.ov == nil {
		return nil
	}
	start := time.Now()
	sc.tally.reset()
	var sp trace.SpanRef
	if x.traced {
		ctx, sp = trace.Start(ctx, trace.KindFragment, "")
	}
	err := x.readRun(ctx, run, sc)
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
	if obs := x.fs.fragObs.Load(); obs != nil {
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
// each filled cell's bytes, read from latched frames, to x.fn — in place when
// the cell lies inside one page, gathered into sc.spill when it straddles
// pages. Cells present in the overlay are served from it and their base
// range is never read, so a half-applied base rewrite behind the overlay is
// invisible. Pool traffic lands in sc.tally. On return no latch and no pin
// is held.
func (x *execution) readRun(ctx context.Context, run *planRun, sc *runScratch) (err error) {
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
					if err = x.fn(cell, ob); err != nil {
						return err
					}
					continue
				}
			}
			n := int64(e.fill)
			if n == 0 {
				continue
			}
			off := e.start
			if off >= c.pageEnd {
				if err = c.seek(ctx, t, off, run.pageHi, x.window); err != nil {
					return err
				}
			}
			b := c.fr.data[off-c.pageBase:]
			if int64(len(b)) >= n {
				if err = x.fn(cell, b[:n:n]); err != nil {
					return err
				}
				continue
			}
			if int64(cap(sc.spill)) < n {
				sc.spill = make([]byte, n)
			}
			for dst := sc.spill[:n]; ; {
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
			if err = x.fn(cell, sc.spill[:n:n]); err != nil {
				return err
			}
		}
	}
	return nil
}

// ReadQueryOptCtx plans the region and reads it with ReadPlanCellsCtx,
// each cell handed to fn as one record; opt is ignored.
//
// Deprecated: use Plan and ReadPlanCellsCtx. Kept only for the benchmark
// module, whose re-baseline removes its last call (ROADMAP item 1); it
// goes then.
func (fs *FileStore) ReadQueryOptCtx(ctx context.Context, r linear.Region, _ ReadOptions, fn func(cell int, record []byte) error) error {
	p, err := fs.Plan(ctx, r)
	if err != nil {
		return err
	}
	return fs.ReadPlanCellsCtx(ctx, p, fn)
}

// ReadCellCtx hands the bytes of a single cell, when it has any, to fn
// through the executor's run body, one page at a time, under the same
// cancellation contract as ReadPlanCellsCtx. It is not a fragment: no
// span, no observer call.
func (fs *FileStore) ReadCellCtx(ctx context.Context, cell int, fn func(b []byte) error) error {
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
		fn: func(_ int, b []byte) error { return fn(b) }}
	sc := scratchPool.Get().(*runScratch)
	defer scratchPool.Put(sc)
	sc.tally.reset()
	err := x.readRun(ctx, &b.p.runs[0], sc)
	if t := tallyFrom(ctx); t != nil {
		t.merge(&sc.tally)
	}
	return err
}

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
