package storage

import (
	"context"

	"repro/internal/linear"
)

// The two implementations the read pipeline replaced, kept as test-only
// oracles: they are slow and obviously right, and the differential suite
// holds the planner and the executor to them.

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
