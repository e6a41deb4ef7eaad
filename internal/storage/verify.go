package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
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
	Records  int64 // records whose framing was walked
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

// Verify scrubs the store; it is VerifyCtx without a deadline.
func (fs *FileStore) Verify() (*VerifyReport, error) {
	return fs.VerifyCtx(context.Background())
}

// VerifyCtx scrubs the store in one walk under its read lock: it flushes
// the pool once, reads every page exactly once, in page order, through the
// checksum layer (bypassing the pool, whose cached frames could mask
// on-disk damage), and checks each cell's fill and record framing from the
// page images it passes. Problems list damaged pages in page order, then
// fill and framing damage in cell order; a cell with data on a damaged page
// gets no framing check. The error is non-nil only for I/O failures or
// cancellation (checked between pages) that stopped the scrub, and
// ErrClosed on a closed store. Queries run beside the walk; writers wait
// for all of it.
func (fs *FileStore) VerifyCtx(ctx context.Context) (*VerifyReport, error) {
	return fs.scrub(ctx, nil)
}

// scrub is the walk behind VerifyCtx and RepairCtx. A page that fails its
// checksum is reported as is when heal is nil; otherwise heal(page, img)
// repairs it under the walk's read lock and, on success, leaves the page's
// verified image in img for the cell walk. A heal error is the page's
// problem.
func (fs *FileStore) scrub(ctx context.Context, heal func(page int64, img []byte) error) (*VerifyReport, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return nil, ErrClosed
	}
	if err := fs.pool.FlushCtx(ctx); err != nil {
		return nil, fmt.Errorf("storage: verify flush: %w", err)
	}
	rep := &VerifyReport{}
	w := cellWalk{fs: fs}
	img := make([]byte, fs.layout.usable())
	total := fs.layout.TotalPages()
	for p := int64(0); p < total; p++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Pages++
		err := fs.file.ReadPage(p, img)
		if err != nil && !errors.Is(err, ErrCorruptPage) {
			return rep, err
		}
		if err != nil && heal != nil {
			err = heal(p, img)
		}
		if err != nil {
			cell, coords := fs.cellOnPage(p)
			rep.Problems = append(rep.Problems, VerifyProblem{Page: p, Cell: cell, Coords: coords, Err: err})
		}
		w.page(p, img, err != nil, p == total-1)
	}
	rep.Records = w.records
	rep.Problems = append(rep.Problems, w.problems...)
	return rep, nil
}

// cellWalk checks fill and record framing from page images handed to it in
// page order. The bytes of a record that straddles pages are carried over;
// a cell's framing is judged once its last byte has been seen.
type cellWalk struct {
	fs       *FileStore
	pos      int    // the cell being walked
	off      int64  // its bytes split into whole records so far
	n        int64  // and those records
	carry    []byte // its bytes since, from earlier pages
	damaged  bool   // it has data on a damaged page
	records  int64  // records of finished cells without damaged pages
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
		w.off, w.n, w.carry, w.damaged = 0, 0, w.carry[:0], false
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
		_, rest, err := NextRecord(cell, data)
		if err != nil {
			break
		}
		w.off += int64(len(data) - len(rest))
		w.n++
		data = rest
	}
	if !last {
		w.carry = append(w.carry[:0], data...)
		return
	}
	w.records += w.n
	if len(data) > 0 {
		at := w.off
		if int64(len(data)) >= FrameSize(0) {
			at += FrameSize(0) // the header is whole: the record overruns the fill
		}
		w.problem((lo+at)/w.fs.layout.usable(), cell, fmt.Errorf("record framing broken at byte %d of cell %d's fill", at, cell))
	}
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
