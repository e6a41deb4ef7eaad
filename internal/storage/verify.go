package storage

import (
	"context"
	"encoding/binary"
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

// VerifyCtx scrubs the store: it flushes the pool, re-reads every physical
// page through the checksum layer (bypassing the pool cache, so cached
// frames cannot mask on-disk damage), and then walks every cell's record
// framing against its fill state. It returns a report of everything found;
// the error is non-nil only for I/O failures (or cancellation) that
// stopped the scrub itself, not for corruption, which lands in the report.
// The context is checked between pages, so a cancelled scrub stops
// promptly; the scrub runs under the store's read lock and concurrently
// with queries, and returns ErrClosed on a closed store.
func (fs *FileStore) VerifyCtx(ctx context.Context) (*VerifyReport, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return nil, ErrClosed
	}
	if err := fs.pool.FlushCtx(ctx); err != nil {
		return nil, fmt.Errorf("storage: verify flush: %w", err)
	}
	rep := &VerifyReport{}
	u := fs.layout.usable()
	buf := make([]byte, u)
	corrupt := make(map[int64]bool)
	for p := int64(0); p < fs.layout.TotalPages(); p++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		rep.Pages++
		err := fs.file.ReadPage(p, buf)
		if err == nil {
			continue
		}
		if errors.Is(err, ErrCorruptPage) {
			corrupt[p] = true
			rep.Problems = append(rep.Problems, fs.problemAt(p, err))
			continue
		}
		return rep, err
	}
	// Fill invariants and record framing, cell by cell.
	for pos := 0; pos < fs.layout.order.Len(); pos++ {
		if err := ctx.Err(); err != nil {
			return rep, err
		}
		lo, hi := fs.dir[pos].start, fs.dir[pos+1].start
		filled := int64(fs.dir[pos].fill)
		cell := int(fs.dir[pos].cell)
		if lo+filled > hi {
			rep.Problems = append(rep.Problems, VerifyProblem{
				Page: -1, Cell: cell, Coords: fs.layout.order.Coords(cell, make([]int, len(fs.layout.order.Shape()))),
				Err: fmt.Errorf("cell %d fill %d outside its %d reserved bytes", cell, filled, hi-lo),
			})
			continue
		}
		if filled == 0 {
			continue
		}
		if pagesTouchCorrupt(lo, lo+filled, u, corrupt) {
			continue // already reported as a page problem
		}
		data := make([]byte, filled)
		if err := fs.readFileRange(data, lo); err != nil {
			return rep, err
		}
		off := int64(0)
		ok := true
		for off < filled {
			if filled-off < 4 {
				ok = false
				break
			}
			n := int64(binary.LittleEndian.Uint32(data[off:]))
			off += 4
			if off+n > filled {
				ok = false
				break
			}
			off += n
			rep.Records++
		}
		if !ok {
			rep.Problems = append(rep.Problems, VerifyProblem{
				Page: (lo + off) / u, Cell: cell, Coords: fs.layout.order.Coords(cell, make([]int, len(fs.layout.order.Shape()))),
				Err: fmt.Errorf("record framing broken at byte %d of cell %d's fill", off, cell),
			})
		}
	}
	return rep, nil
}

// problemAt annotates a corrupt-page error with the first cell that has
// data on the page.
func (fs *FileStore) problemAt(page int64, err error) VerifyProblem {
	cell, coords := fs.cellOnPage(page)
	return VerifyProblem{Page: page, Cell: cell, Coords: coords, Err: err}
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

// pagesTouchCorrupt reports whether the byte range [lo, hi) overlaps any
// page in the corrupt set.
func pagesTouchCorrupt(lo, hi, usable int64, corrupt map[int64]bool) bool {
	if len(corrupt) == 0 || hi <= lo {
		return false
	}
	for p := lo / usable; p <= (hi-1)/usable; p++ {
		if corrupt[p] {
			return true
		}
	}
	return false
}

// readFileRange reads logical bytes straight from the checksum layer,
// bypassing the pool (for scrubbing: the pool would serve cached frames).
func (fs *FileStore) readFileRange(dst []byte, off int64) error {
	u := fs.layout.usable()
	buf := make([]byte, u)
	for len(dst) > 0 {
		page := off / u
		if err := fs.file.ReadPage(page, buf); err != nil {
			return err
		}
		n := copy(dst, buf[off%u:])
		dst = dst[n:]
		off += int64(n)
	}
	return nil
}
