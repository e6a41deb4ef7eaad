package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/linear"
)

// The implementations the read pipeline and the one scrub walk replaced,
// kept as test-only oracles: they are slow and obviously right, and the
// differential suites hold the planner, the executor and the scrub to them.

// oracleQuery is the enumerate-sort-merge Layout.Query: sorted positions,
// byte runs merged across empty cells, then page ranges merged when they
// overlap or touch.
func oracleQuery(l *Layout, r linear.Region) Stats {
	type span struct{ lo, hi int64 }
	var runs []span
	for _, p := range l.order.Positions(r) {
		lo, hi := l.dir[p].start, l.dir[p+1].start
		if lo == hi {
			continue
		}
		if n := len(runs); n > 0 && runs[n-1].hi == lo {
			runs[n-1].hi = hi
			continue
		}
		runs = append(runs, span{lo, hi})
	}
	var st Stats
	if len(runs) == 0 {
		return st
	}
	u := l.usable()
	var merged []span // inclusive page ranges
	for _, run := range runs {
		st.Bytes += run.hi - run.lo
		pr := span{run.lo / u, (run.hi - 1) / u}
		if n := len(merged); n > 0 && pr.lo <= merged[n-1].hi+1 {
			if pr.hi > merged[n-1].hi {
				merged[n-1].hi = pr.hi
			}
			continue
		}
		merged = append(merged, pr)
	}
	for _, pr := range merged {
		st.Pages += pr.hi - pr.lo + 1
	}
	st.Seeks = int64(len(merged))
	st.MinPages = (st.Bytes + u - 1) / u
	if st.MinPages > 0 {
		st.NormPages = float64(st.Pages) / float64(st.MinPages)
	}
	return st
}

// oracleCells is the per-cell copy reader: every position of the region in
// sorted order, the overlay consulted per cell, each filled cell copied out
// of the pool with ReadAtCtx and handed to fn whole.
func oracleCells(ctx context.Context, fs *FileStore, r linear.Region, fn func(cell int, framed []byte) error) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	ov := fs.overlayFn()
	for _, pos := range fs.layout.order.Positions(r) {
		cell := fs.layout.order.CellAt(pos)
		if ov != nil {
			if ob, ok := ov(cell); ok {
				if t := tallyFrom(ctx); t != nil {
					t.deltaHit()
				}
				if err := fn(cell, ob); err != nil {
					return err
				}
				continue
			}
		}
		if fs.dir[pos].fill == 0 {
			continue
		}
		buf := make([]byte, fs.dir[pos].fill)
		if err := fs.pool.ReadAtCtx(ctx, buf, fs.dir[pos].start); err != nil {
			return err
		}
		if err := fn(cell, buf); err != nil {
			return err
		}
	}
	return nil
}

// oracleRead is oracleCells with each cell parsed by walkRecords.
func oracleRead(ctx context.Context, fs *FileStore, r linear.Region, fn func(cell int, record []byte) error) error {
	return oracleCells(ctx, fs, r, func(cell int, framed []byte) error { return walkRecords(cell, framed, fn) })
}

// oracleVerify is the two-pass VerifyCtx: a page pass through the checksum
// layer, then every filled cell re-read page by page (skipped when it
// touches a corrupt page) and its framing walked by an inline length
// parser.
func oracleVerify(ctx context.Context, fs *FileStore) (*VerifyReport, error) {
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
			cell, coords := fs.cellOnPage(p)
			rep.Problems = append(rep.Problems, VerifyProblem{Page: p, Cell: cell, Coords: coords, Err: err})
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
		if err := oracleReadFileRange(fs, data, lo); err != nil {
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
			rep.Rows += fs.rowsOf(data[off : off+n])
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

// oracleReadFileRange reads logical bytes straight from the checksum layer,
// bypassing the pool (for scrubbing: the pool would serve cached frames).
func oracleReadFileRange(fs *FileStore, dst []byte, off int64) error {
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
