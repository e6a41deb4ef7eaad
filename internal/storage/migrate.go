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

// Migration is a re-clustering copy in progress: StartMigration sets it up,
// each Step copies the next cells within a byte budget, Finish flushes and
// returns the new store, and Abort deletes the partial output. A Step or
// Finish error aborts the migration too, so its path ends up holding either
// a complete, flushed store or nothing. A Migration is for one goroutine.
type Migration struct {
	old, dst *FileStore
	path     string
	order    *linear.Order
	rest     []migrateRegion // regions not yet copied, worst first
	done     int
	copySpan trace.SpanRef
}

// migrateRegion is target positions [lo, hi) and their copy priority.
type migrateRegion struct {
	lo, hi int
	score  float64
}

// StartMigration begins re-clustering a file store onto a new
// linearization, creating the new store at newPath packed along newOrder.
// Cell payload capacities carry over (they are a property of the data, not
// the order). The target order is cut into regions of regionCells
// consecutive positions (every cell when regionCells <= 0), so each copied
// region lands contiguously in the destination; regions are scored
//
//	(1 + deltaBytes) × (1 + violation)
//
// where deltaBytes is what the old store's overlay holds pending for the
// region's cells and violation is the mean |targetPos − deployedPos| of
// those cells, and are copied worst-first. Reads of the old store are
// overlay-aware, so a cell with a pending delta is copied with its freshest
// content; entries put *during* the copy are the caller's to carry over at
// cutover. The old store is left open and untouched; callers typically
// Close and delete it after the swap.
func StartMigration(ctx context.Context, old *FileStore, newPath string, newOrder *linear.Order, poolFrames, regionCells int) (*Migration, error) {
	oldOrder := old.layout.order
	total := oldOrder.Len()
	if newOrder.Len() != total {
		return nil, fmt.Errorf("storage: migrating %d cells onto an order with %d", total, newOrder.Len())
	}
	old.mu.RLock()
	closed := old.closed
	old.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("storage: migrating from a closed store: %w", ErrClosed)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if regionCells <= 0 {
		regionCells = total
	}
	bytesPerCell := make([]int64, total)
	for cell := range bytesPerCell {
		bytesPerCell[cell] = old.layout.CellCapacity(cell)
	}
	dst, err := CreateFileStore(newPath, newOrder, bytesPerCell, int(old.layout.pageSize), poolFrames)
	if err != nil {
		return nil, err
	}
	ov := old.overlayFn()
	regions := make([]migrateRegion, 0, (total+regionCells-1)/regionCells)
	for lo := 0; lo < total; lo += regionCells {
		hi := min(lo+regionCells, total)
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
		regions = append(regions, migrateRegion{lo: lo, hi: hi, score: (1 + float64(delta)) * (1 + mean)})
	}
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].score != regions[j].score {
			return regions[i].score > regions[j].score
		}
		return regions[i].lo < regions[j].lo
	})
	// The copy is one span across every step (cells and regions attached) and Finish's flush another, so a migration trace shows
	// where the time went.
	sp := trace.StartLeaf(ctx, trace.KindCopy, "")
	sp.SetAttr("cells", int64(total))
	sp.SetAttr("regions", int64(len(regions)))
	return &Migration{old: old, dst: dst, path: newPath, order: newOrder, rest: regions, copySpan: sp}, nil
}

// Step copies the next cells, worst region first, while they fit in bytes
// (records, framed), and always at least one; an empty cell costs nothing.
// It returns the bytes it copied. Each cell is read under the old store's
// shared lock, released between cells, so in-flight readers and even a
// concurrent Close interleave cleanly: Close surfaces as a typed ErrClosed.
// Cancellation is checked between cells and inside each cell read. A
// corrupt source page is repaired from the old store's parity sidecar and
// the cell re-read.
func (m *Migration) Step(ctx context.Context, bytes int64) (int64, error) {
	if m.dst == nil {
		return 0, fmt.Errorf("storage: migration to %s is over: %w", m.path, ErrClosed)
	}
	var copied int64
	for cells := 0; len(m.rest) > 0; cells++ {
		if err := ctx.Err(); err != nil {
			return copied, m.fail(err)
		}
		rg := &m.rest[0]
		cell := m.order.CellAt(rg.lo)
		records, err := readCellRepairing(ctx, m.old, cell)
		if err != nil {
			return copied, m.fail(fmt.Errorf("storage: migration copy of cell %d: %w", cell, err))
		}
		var size int64
		for _, rec := range records {
			size += FrameSize(len(rec))
		}
		if cells > 0 && copied+size > bytes {
			break // the cell is read again by the next step
		}
		for _, rec := range records {
			if err := m.dst.PutRecord(cell, rec); err != nil {
				return copied, m.fail(fmt.Errorf("storage: migration copy of cell %d: %w", cell, err))
			}
		}
		copied += size
		m.done++
		if rg.lo++; rg.lo == rg.hi {
			m.rest = m.rest[1:]
		}
	}
	if m.Done() {
		m.copySpan.End()
	}
	return copied, nil
}

// Done reports whether every cell has been copied.
func (m *Migration) Done() bool { return len(m.rest) == 0 }

// Progress reports the cells copied so far and the store's cell count.
func (m *Migration) Progress() (done, total int) { return m.done, m.order.Len() }

// Finish flushes the copied store and returns it, ready to query. The copy
// must be Done.
func (m *Migration) Finish(ctx context.Context) (*FileStore, error) {
	if m.dst == nil || !m.Done() {
		return nil, m.fail(fmt.Errorf("storage: finishing migration to %s before its copy is done", m.path))
	}
	sp := trace.StartLeaf(ctx, trace.KindFlush, "")
	err := m.dst.pool.Flush()
	sp.SetError(err)
	sp.End()
	if err != nil {
		return nil, m.fail(fmt.Errorf("storage: migration flush: %w", err))
	}
	dst := m.dst
	m.dst = nil
	return dst, nil
}

// Abort deletes the partial output. It is a no-op once the migration has
// finished or failed.
func (m *Migration) Abort() { m.fail(errors.New("storage: migration aborted")) }

// fail drops the partial output unflushed, its dirty frames belonging to a
// file about to be removed, and returns err.
func (m *Migration) fail(err error) error {
	if m.dst != nil {
		m.copySpan.SetError(err)
		m.copySpan.End()
		m.dst.discard()
		os.Remove(m.path)
		m.dst = nil
	}
	return err
}

// MigrateCtx is a whole migration in one call: StartMigration with the
// whole order as one region, one unbounded Step and Finish. On any failure,
// cancellation included, the partial output file is deleted.
func MigrateCtx(ctx context.Context, old *FileStore, newPath string, newOrder *linear.Order, poolFrames int) (*FileStore, error) {
	m, err := StartMigration(ctx, old, newPath, newOrder, poolFrames, 0)
	if err != nil {
		return nil, err
	}
	if _, err := m.Step(ctx, math.MaxInt64); err != nil {
		return nil, err
	}
	return m.Finish(ctx)
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
