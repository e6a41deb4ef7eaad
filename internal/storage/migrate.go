package storage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"

	"repro/internal/linear"
	"repro/internal/trace"
)

// MigrateOptions paces a migration. The zero value copies the whole file
// as one region in one unpaced tick.
type MigrateOptions struct {
	// RegionCells is the copy unit in consecutive target positions
	// (default: every cell, one region).
	RegionCells int
	// Pace, when non-nil, meters the copy's I/O in bytes written (records,
	// framed). It is called before the first tick and after each with the
	// bytes that tick copied, last set after the final one or when the copy
	// fails (its bytes then 0). Unless last, it returns the bytes the next
	// tick may copy, blocking until they are granted if it likes; an error
	// aborts the migration. A tick copies cells while they fit its bytes, and
	// always at least one; without Pace the copy is one unbounded tick.
	Pace func(ctx context.Context, copied int64, last bool) (budget int64, err error)
	// Progress, when non-nil, is called after each tick with (cellsCopied,
	// totalCells); it runs on the migrating goroutine and must be cheap.
	Progress func(done, total int)
}

// MigrateCtx re-clusters a file store onto a new linearization, writing the
// new store at newPath packed along newOrder. Cell payload capacities carry
// over (they are a property of the data, not the order). The target order
// is cut into regions of RegionCells consecutive positions, so each copied
// region lands contiguously in the destination; regions are scored
//
//	(1 + deltaBytes) × (1 + violation)
//
// where deltaBytes is what the old store's overlay holds pending for the
// region's cells and violation is the mean |targetPos − deployedPos| of
// those cells, and are copied worst-first in ticks of the bytes Pace
// grants. Reads of the old store are overlay-aware, so a cell with a
// pending delta is copied with its freshest content; entries put *during*
// the copy are the caller's to carry over at cutover.
//
// Each cell is read under the old store's shared lock but the lock is
// released between cells, so in-flight readers and even a concurrent Close
// interleave cleanly: Close surfaces here as a typed ErrClosed instead of
// a race on the underlying file. Cancellation is checked between cells,
// inside each cell read. A corrupt source page is
// repaired from the old store's parity sidecar and the cell re-read.
//
// On any failure — including cancellation — the partial output file is
// deleted, so newPath either holds a complete, flushed store or does not
// exist. Returns the new store, flushed and ready to query, and the number
// of ticks the copy took. The old store is left open and untouched; callers
// typically Close and delete it after the swap.
func MigrateCtx(ctx context.Context, old *FileStore, newPath string, newOrder *linear.Order, poolFrames int, opt MigrateOptions) (*FileStore, int, error) {
	oldOrder := old.layout.order
	total := oldOrder.Len()
	if newOrder.Len() != total {
		return nil, 0, fmt.Errorf("storage: migrating %d cells onto an order with %d", total, newOrder.Len())
	}
	old.mu.RLock()
	closed := old.closed
	old.mu.RUnlock()
	if closed {
		return nil, 0, fmt.Errorf("storage: migrating from a closed store: %w", ErrClosed)
	}
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	if opt.RegionCells <= 0 {
		opt.RegionCells = total
	}
	if opt.Pace == nil {
		opt.Pace = func(context.Context, int64, bool) (int64, error) { return math.MaxInt64, nil }
	}
	bytesPerCell := make([]int64, total)
	for cell := range bytesPerCell {
		bytesPerCell[cell] = old.layout.CellCapacity(cell)
	}
	dst, err := CreateFileStore(newPath, newOrder, bytesPerCell, int(old.layout.pageSize), poolFrames)
	if err != nil {
		return nil, 0, err
	}
	// The copy is one span (cells, regions and ticks attached) and the final
	// flush another, so a migration trace shows where the time went.
	cctx, copySpan := trace.Start(ctx, trace.KindCopy, "")
	copySpan.SetAttr("cells", int64(total))
	// abort drops the partial output unflushed: its dirty frames belong to a
	// file that is about to be removed.
	abort := func(sp trace.SpanRef, err error) (*FileStore, int, error) {
		opt.Pace(ctx, 0, true)
		sp.SetError(err)
		sp.End()
		dst.discard()
		os.Remove(newPath)
		return nil, 0, err
	}

	type region struct {
		lo, hi int // target positions [lo, hi)
		score  float64
	}
	ov := old.overlayFn()
	regions := make([]region, 0, (total+opt.RegionCells-1)/opt.RegionCells)
	for lo := 0; lo < total; lo += opt.RegionCells {
		hi := min(lo+opt.RegionCells, total)
		var delta, violation int64
		for pos := lo; pos < hi; pos++ {
			cell := newOrder.CellAt(pos)
			d := pos - oldOrder.PosOf(cell)
			if d < 0 {
				d = -d
			}
			violation += int64(d)
			if ov != nil {
				if b, ok := ov(cell); ok {
					delta += int64(len(b))
				}
			}
		}
		mean := float64(violation) / float64(hi-lo)
		regions = append(regions, region{lo: lo, hi: hi, score: (1 + float64(delta)) * (1 + mean)})
	}
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].score != regions[j].score {
			return regions[i].score > regions[j].score
		}
		return regions[i].lo < regions[j].lo
	})
	copySpan.SetAttr("regions", int64(len(regions)))

	budget, err := opt.Pace(ctx, 0, false)
	if err != nil {
		return abort(copySpan, err)
	}
	done, ticks, inTick, tickBytes := 0, 0, 0, int64(0)
	for _, rg := range regions {
		for pos := rg.lo; pos < rg.hi; pos++ {
			if err := ctx.Err(); err != nil {
				return abort(copySpan, err)
			}
			cell := newOrder.CellAt(pos)
			records, err := readCellRepairing(cctx, old, cell)
			if err != nil {
				return abort(copySpan, fmt.Errorf("storage: migration copy of cell %d: %w", cell, err))
			}
			var size int64
			for _, rec := range records {
				size += FrameSize(len(rec))
			}
			if inTick > 0 && tickBytes+size > budget {
				ticks++
				if opt.Progress != nil {
					opt.Progress(done, total)
				}
				if budget, err = opt.Pace(ctx, tickBytes, false); err != nil {
					return abort(copySpan, err)
				}
				inTick, tickBytes = 0, 0
			}
			for _, rec := range records {
				if err := dst.PutRecord(cell, rec); err != nil {
					return abort(copySpan, fmt.Errorf("storage: migration copy of cell %d: %w", cell, err))
				}
			}
			done++
			inTick++
			tickBytes += size
		}
	}
	if inTick > 0 {
		ticks++
	}
	if opt.Progress != nil {
		opt.Progress(done, total)
	}
	if _, err := opt.Pace(ctx, tickBytes, true); err != nil {
		return abort(copySpan, err)
	}
	copySpan.SetAttr("ticks", int64(ticks))
	copySpan.End()
	fsp := trace.StartLeaf(ctx, trace.KindFlush, "")
	if err := dst.pool.Flush(); err != nil {
		return abort(fsp, fmt.Errorf("storage: migration flush: %w", err))
	}
	fsp.End()
	return dst, ticks, nil
}

// migrateRepairAttempts bounds the repair-and-reread loop per cell. A cell
// spans at most a handful of pages, and each successful repair fixes a
// distinct page, so the bound is never reached on a repairable store; it
// exists to guarantee termination if repair keeps "succeeding" without the
// reread getting further.
const migrateRepairAttempts = 16

// readCellRepairing reads all of a cell's records into memory, repairing
// the source store's corrupt pages from its parity sidecar and retrying
// when possible. Records are buffered — not streamed to the destination —
// because a retry re-reads the whole cell and the destination's fill state
// cannot be rewound, so streaming would duplicate records copied before
// the error. Each repair is a one-page repairing scrub window.
func readCellRepairing(ctx context.Context, old *FileStore, cell int) ([][]byte, error) {
	var records [][]byte
	read := func() error {
		records = records[:0]
		return old.ReadCellCtx(ctx, cell, func(record []byte) error {
			records = append(records, append([]byte(nil), record...))
			return nil
		})
	}
	err := read()
	for attempt := 0; err != nil && attempt < migrateRepairAttempts; attempt++ {
		var cpe *CorruptPageError
		if !errors.As(err, &cpe) || !old.HasParity() {
			return nil, err
		}
		rep, rerr := old.ScrubRange(ctx, ScrubCursor{Page: cpe.Page}, cpe.Page+1, true)
		if rerr == nil && len(rep.Problems) > 0 && rep.Problems[0].Page == cpe.Page {
			rerr = rep.Problems[0].Err // a window's first problem is its damaged first page
		}
		if rerr != nil {
			return nil, fmt.Errorf("repairing source page %d: %w", cpe.Page, rerr)
		}
		err = read()
	}
	if err != nil {
		return nil, err
	}
	return records, nil
}
