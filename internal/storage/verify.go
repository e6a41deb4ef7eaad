package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// VerifyProblem is one defect found by a scrub: where it is on disk and, if
// the page holds cell data, which cell and grid coordinates it belongs to.
type VerifyProblem struct {
	Page   int64 // physical page index; -1 when the problem is not page-local
	Cell   int   // first cell with data on that page; -1 when none
	Coords []int // the cell's leaf coordinates, nil when Cell is -1
	Err    error
}

func (p VerifyProblem) String() string {
	loc := "catalog state"
	if p.Page >= 0 {
		loc = fmt.Sprintf("page %d", p.Page)
		if p.Cell >= 0 {
			loc += fmt.Sprintf(" (cell %d @ %v)", p.Cell, p.Coords)
		}
	}
	return fmt.Sprintf("%s: %v", loc, p.Err)
}

// VerifyReport is the outcome of a scrub pass.
type VerifyReport struct {
	Pages    int64 // pages scanned
	Records  int64 // stored records whose framing was walked
	Rows     int64 // rows in those records, by the row counter (SetRowCounter)
	Problems []VerifyProblem
}

// OK reports whether the scrub found nothing wrong.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

// Err returns nil for a clean report, else an error summarizing every
// problem (matching ErrCorruptPage when any problem does).
func (r *VerifyReport) Err() error {
	if r.OK() {
		return nil
	}
	msgs := make([]string, len(r.Problems))
	corrupt := false
	for i, p := range r.Problems {
		msgs[i] = p.String()
		if errors.Is(p.Err, ErrCorruptPage) {
			corrupt = true
		}
	}
	err := fmt.Errorf("storage: verify found %d problem(s): %s", len(r.Problems), strings.Join(msgs, "; "))
	if corrupt {
		return fmt.Errorf("%w: %w", ErrCorruptPage, err)
	}
	return err
}

// ScrubReport is what one window of the scrub walk found.
type ScrubReport struct {
	VerifyReport
	Repaired []int64     // pages rebuilt from parity and re-verified, in page order
	Next     ScrubCursor // where the next window of the sequence starts
	// Settled is the first page with bytes of the cell Next holds open,
	// else Next.Page: every cell with bytes before it has been judged.
	Settled int64
}

// ScrubCursor is where a sequence of scrub windows stands: the page the
// next window starts at and the walk of a cell the last window left open
// across it. A cursor with only Page set starts a sequence there.
type ScrubCursor struct {
	Page int64
	open *cellWalk // nil when no cell is open across Page
}

// SetRowCounter installs fn to count the rows in one stored record for the
// scrub walk's Rows; without one a record is a row. fn runs under the
// walk's read lock and must be safe for concurrent use.
func (fs *FileStore) SetRowCounter(fn func(rec []byte) int) { fs.rowCount.Store(&fn) }

// Verify scrubs the store; it is VerifyCtx without a deadline.
func (fs *FileStore) Verify() (*VerifyReport, error) {
	return fs.VerifyCtx(context.Background())
}

// VerifyCtx scrubs the store: it is the scrub window over every page.
func (fs *FileStore) VerifyCtx(ctx context.Context) (*VerifyReport, error) {
	rep, err := fs.ScrubRange(ctx, ScrubCursor{}, fs.layout.TotalPages(), false)
	return &rep.VerifyReport, err
}

// ScrubRange is the window of the scrub walk over pages [from.Page, hi),
// under the store's read lock: it flushes the pool if it holds writes,
// reads each page once, in order, through the checksum layer (the pool's
// cached frames could mask on-disk damage), and checks the fill and record
// framing of every cell whose first byte is in the window or that from
// holds open. A cell that runs on past hi is carried open in Next, so
// windows that each start at the last one's Next read every page and walk
// every cell once; a cell across from.Page that from does not hold open
// belongs to an earlier window. After a write to the store between two
// windows the open cell is walked again from its first page, which the
// window then reads a second time (not counted in Pages).
// Problems list damaged pages in page order, then fill and framing damage
// in cell order; a cell with data on a damaged page gets no framing check.
// With repair, a damaged page is rebuilt from parity in place and its
// cells walked from the rebuilt image, in a scrub span with a repair child
// per page. The error is an I/O failure or cancellation (checked between
// pages) that cut the walk short, or ErrClosed; the report then holds what
// the walk did. Queries run beside a window; writers wait.
func (fs *FileStore) ScrubRange(ctx context.Context, from ScrubCursor, hi int64, repair bool) (rep *ScrubReport, err error) {
	var ssp trace.SpanRef
	if repair {
		ctx, ssp = trace.Start(ctx, trace.KindScrub, "")
		defer func() { ssp.SetError(err); ssp.End() }()
	}
	rep = &ScrubReport{Next: from}
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return rep, ErrClosed
	}
	// The walk reads the file: writes only the pool holds must reach it
	// first. With none, a window costs no flush, walk of the frames or sync.
	if fs.pool.dirty.Load() > 0 {
		if err := fs.pool.FlushCtx(ctx); err != nil {
			return rep, fmt.Errorf("storage: verify flush: %w", err)
		}
	}
	u, total, lo := fs.layout.usable(), fs.layout.TotalPages(), from.Page
	hi = min(hi, total)
	w := cellWalk{fs: fs, epoch: fs.epoch, pos: sort.Search(len(fs.dir)-1, func(i int) bool { return fs.dir[i].start >= lo*u })}
	img := make([]byte, u)
	if o := from.open; o != nil && o.fs == fs {
		w.pos = o.pos
		if o.epoch == fs.epoch {
			w.off, w.n, w.nRows, w.damaged = o.off, o.n, o.nRows, o.damaged
			w.carry = append([]byte(nil), o.carry...)
		} else {
			// A write since the last window may have rewritten the open
			// cell: walk it again from its first page.
			for p := fs.dir[w.pos].start / u; p < lo; p++ {
				err := fs.file.ReadPage(p, img)
				w.page(p, img, err != nil, false)
			}
		}
	}
	for p := lo; p < hi; p++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Pages++
		err := fs.file.ReadPage(p, img)
		if err != nil && !errors.Is(err, ErrCorruptPage) {
			return rep, err
		}
		if err != nil && repair {
			rsp := trace.StartLeaf(ctx, trace.KindRepair, "")
			rsp.SetAttr("page", p)
			if err = fs.repairPageLocked(p, img); err == nil {
				rep.Repaired = append(rep.Repaired, p)
			}
			rsp.SetError(err)
			rsp.End()
		}
		if err != nil {
			cell, coords := fs.cellOnPage(p)
			rep.Problems = append(rep.Problems, VerifyProblem{Page: p, Cell: cell, Coords: coords, Err: err})
		}
		w.page(p, img, err != nil, p == total-1)
	}
	rep.Records, rep.Rows = w.records, w.rows
	rep.Problems = append(rep.Problems, w.problems...)
	rep.Next, rep.Settled = ScrubCursor{Page: max(lo, hi)}, max(lo, hi)
	if w.pos < len(fs.dir)-1 && fs.dir[w.pos].start < hi*u {
		rep.Next.open, rep.Settled = &w, fs.dir[w.pos].start/u
	}
	ssp.SetAttr("pages", rep.Pages)
	ssp.SetAttr("repaired", int64(len(rep.Repaired)))
	return rep, nil
}

// cellWalk checks fill and record framing from page images handed to it in
// page order. The bytes of a record that straddles pages are carried over;
// a cell's framing is judged once its last byte has been seen.
type cellWalk struct {
	fs       *FileStore
	epoch    uint64 // fs's write epoch during the walk
	pos      int    // the cell being walked
	off      int64  // its bytes split into whole records so far
	n, nRows int64  // and the records and rows in them
	carry    []byte // its bytes since, from earlier pages
	damaged  bool   // it has data on a damaged page
	records  int64  // records of finished cells without damaged pages
	rows     int64  // and the rows in them
	problems []VerifyProblem
}

// page walks the cells with bytes on page p. The last page also takes the
// cells that start past the end of the file: they reserve no bytes, so
// only their fill can be wrong.
func (w *cellWalk) page(p int64, img []byte, damaged, last bool) {
	dir := w.fs.dir
	u := int64(len(img))
	pLo, pHi := p*u, (p+1)*u
	for ; w.pos < len(dir)-1 && (dir[w.pos].start < pHi || last); w.pos++ {
		lo, hi := dir[w.pos].start, dir[w.pos+1].start
		end := lo + int64(dir[w.pos].fill)
		cell := int(dir[w.pos].cell)
		if end > hi {
			w.problem(-1, cell, fmt.Errorf("cell %d fill %d outside its %d reserved bytes", cell, end-lo, hi-lo))
			continue
		}
		if end == lo {
			continue
		}
		w.damaged = w.damaged || damaged
		if !w.damaged {
			w.frame(cell, lo, img[max(lo, pLo)-pLo:min(end, pHi)-pLo], end <= pHi)
		}
		if end > pHi {
			return // the cell goes on on the next page
		}
		w.off, w.n, w.nRows, w.carry, w.damaged = 0, 0, 0, w.carry[:0], false
	}
}

// frame splits the cell's bytes on one page into records with NextRecord.
// On the cell's last page its records count, and whatever does not split
// is broken framing.
func (w *cellWalk) frame(cell int, lo int64, chunk []byte, last bool) {
	data := chunk
	if len(w.carry) > 0 {
		w.carry = append(w.carry, chunk...)
		data = w.carry
	}
	for len(data) > 0 {
		rec, rest, err := NextRecord(cell, data)
		if err != nil {
			break
		}
		w.off += int64(len(data) - len(rest))
		w.n++
		w.nRows += w.fs.rowsOf(rec)
		data = rest
	}
	if !last {
		w.carry = append(w.carry[:0], data...)
		return
	}
	w.records, w.rows = w.records+w.n, w.rows+w.nRows
	if len(data) > 0 {
		at := w.off
		if int64(len(data)) >= FrameSize(0) {
			at += FrameSize(0) // the header is whole: the record overruns the fill
		}
		w.problem((lo+at)/w.fs.layout.usable(), cell, fmt.Errorf("record framing broken at byte %d of cell %d's fill", at, cell))
	}
}

// rowsOf counts the rows in one stored record with the row counter.
func (fs *FileStore) rowsOf(rec []byte) int64 {
	if count := fs.rowCount.Load(); count != nil && *count != nil {
		return int64((*count)(rec))
	}
	return 1
}

func (w *cellWalk) problem(page int64, cell int, err error) {
	o := w.fs.layout.order
	w.problems = append(w.problems, VerifyProblem{Page: page, Cell: cell, Coords: o.Coords(cell, make([]int, len(o.Shape()))), Err: err})
}

// cellOnPage returns the first non-empty cell whose byte range intersects
// the page, or (-1, nil) when the page holds no cell data.
func (fs *FileStore) cellOnPage(page int64) (int, []int) {
	u := fs.layout.usable()
	lo, hi := page*u, (page+1)*u
	dir := fs.dir
	n := len(dir) - 1
	pos := sort.Search(n, func(i int) bool { return dir[i+1].start > lo })
	for ; pos < n && dir[pos].start < hi; pos++ {
		if dir[pos+1].start > dir[pos].start {
			cell := int(dir[pos].cell)
			return cell, fs.layout.order.Coords(cell, make([]int, len(fs.layout.order.Shape())))
		}
	}
	return -1, nil
}
