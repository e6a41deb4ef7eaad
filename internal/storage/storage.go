// Package storage is the disk layer of Section 6.1: records are packed
// along a chosen linearization into fixed-size pages, splitting cells (but
// never records) across page boundaries, and queries are measured by the
// pages they touch and the seeks (maximal runs of consecutive pages) they
// need — predicted by Layout, read for real by FileStore.
package storage

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/linear"
)

// DefaultPageSize is the paper's 8 KB page.
const DefaultPageSize = 8192

// Layout is a packed disk layout: every grid cell owns a contiguous byte
// range, in linearization order. Layouts built for checksummed files carry
// a per-page trailer, shrinking the usable bytes of every page so the
// analytic page counts stay consistent with the physical file.
type Layout struct {
	order    *linear.Order
	pageSize int64
	trailer  int64 // bytes per page reserved for the checksum trailer
	// dir is the cell directory, one entry per disk position plus a last one
	// holding the total size, so the cell at position p spans
	// [dir[p].start, dir[p+1].start). A FileStore on the layout uses it in place.
	dir []dirEntry

	posBits sync.Pool // *[]uint64 position bitmaps for eachFragment, returned zeroed
}

// dirEntry is what the planner and the run body need to know about a disk
// position, in 16 bytes read sequentially along a fragment: where the cell's
// extent starts, how much of it is written, and which cell it is. The layout
// never touches fill: it belongs to the FileStore on the layout, under its lock.
type dirEntry struct {
	start int64
	fill  uint32
	cell  int32
}

// ErrCellTooLarge marks a cell whose reserved extent is 4 GiB or more: the
// directory keeps a cell's fill as a uint32.
var ErrCellTooLarge = errors.New("storage: cell extent is 4 GiB or more")

// NewLayout packs the cells of the order, where bytesPerCell[cell] is the
// payload of each cell (record count × record size; zero for empty cells).
// Every page byte is usable — the paper's analytic model.
func NewLayout(o *linear.Order, bytesPerCell []int64, pageSize int64) (*Layout, error) {
	return newLayout(o, bytesPerCell, pageSize, 0)
}

// NewFileLayout packs cells for a checksummed page file: each page gives up
// PageTrailerSize bytes to the CRC trailer, so page and seek counts match
// what the file store physically does.
func NewFileLayout(o *linear.Order, bytesPerCell []int64, pageSize int64) (*Layout, error) {
	return newLayout(o, bytesPerCell, pageSize, PageTrailerSize)
}

func newLayout(o *linear.Order, bytesPerCell []int64, pageSize, trailer int64) (*Layout, error) {
	if len(bytesPerCell) != o.Len() {
		return nil, fmt.Errorf("storage: %d cell sizes for %d cells", len(bytesPerCell), o.Len())
	}
	if pageSize <= trailer {
		return nil, fmt.Errorf("storage: page size %d must exceed the %d-byte trailer", pageSize, trailer)
	}
	l := &Layout{order: o, pageSize: pageSize, trailer: trailer, dir: make([]dirEntry, o.Len()+1)}
	var off int64
	for p := 0; p < o.Len(); p++ {
		cell := o.CellAt(p)
		b := bytesPerCell[cell]
		if b < 0 {
			return nil, fmt.Errorf("storage: cell %d has negative size %d", cell, b)
		}
		if b > math.MaxUint32 {
			return nil, fmt.Errorf("%w: cell %d reserves %d bytes", ErrCellTooLarge, cell, b)
		}
		l.dir[p] = dirEntry{start: off, cell: int32(cell)}
		off += b
	}
	l.dir[o.Len()] = dirEntry{start: off, cell: -1}
	return l, nil
}

// usable returns the data bytes per page (page size minus trailer).
func (l *Layout) usable() int64 { return l.pageSize - l.trailer }

// Order returns the linearization the layout was packed along.
func (l *Layout) Order() *linear.Order { return l.order }

// TotalBytes returns the packed size of the fact data.
func (l *Layout) TotalBytes() int64 { return l.dir[len(l.dir)-1].start }

// TotalPages returns the number of pages the layout occupies, counting
// only usable (non-trailer) bytes per page.
func (l *Layout) TotalPages() int64 {
	u := l.usable()
	return (l.TotalBytes() + u - 1) / u
}

// PageSize returns the layout's physical page size in bytes.
func (l *Layout) PageSize() int64 { return l.pageSize }

// TrailerBytes returns the per-page bytes reserved for the checksum
// trailer (0 for the paper's analytic layout).
func (l *Layout) TrailerBytes() int64 { return l.trailer }

// CellCapacity returns the reserved byte capacity of one cell's extent in
// the packing — a property of the data, independent of how much is filled.
// The ingest layer sizes delta upserts and migration targets against it.
func (l *Layout) CellCapacity(cell int) int64 {
	pos := l.order.PosOf(cell)
	return l.dir[pos+1].start - l.dir[pos].start
}

// Stats measures one query's disk cost.
type Stats struct {
	Bytes     int64   // payload bytes of the selected records
	Pages     int64   // distinct pages touched
	Seeks     int64   // maximal runs of consecutive pages (non-sequential accesses)
	MinPages  int64   // ⌈Bytes/pageSize⌉: pages under perfect clustering (≥1 when Bytes>0)
	NormPages float64 // Pages / MinPages; 0 when the query selects nothing
}

// Query measures the pages and seeks needed to read all records in the
// region under this layout: it builds the region's fragments and prices
// them (see statsAcc), with no position slice and no sort.
func (l *Layout) Query(r linear.Region) Stats {
	var acc statsAcc
	l.eachFragment(r, func(lo, hi int) { acc.add(l, lo, hi) })
	return acc.stats(l.usable())
}

// statsAcc prices a query fragment by fragment. A fragment's cells are
// byte-contiguous, so it is one byte run; empty cells occupy no bytes, and
// byte runs landing on the same or adjacent pages are read with a single
// sequential access. Logical offsets map to pages by usable bytes, so
// trailer overhead shows up in the counts exactly as it does on disk.
type statsAcc struct {
	bytes, pages, seeks int64
	pageHi              int64 // last page of the current merged page range
}

// add prices the fragment of disk positions [lo, hi); fragments must
// arrive in ascending position order.
func (a *statsAcc) add(l *Layout, lo, hi int) {
	bLo, bHi := l.dir[lo].start, l.dir[hi].start
	if bLo == bHi {
		return // only empty cells: no data, no seek boundary
	}
	u := l.usable()
	a.bytes += bHi - bLo
	pLo, pHi := bLo/u, (bHi-1)/u
	switch {
	case a.seeks == 0 || pLo > a.pageHi+1:
		a.seeks++
		a.pages += pHi - pLo + 1
	case pHi > a.pageHi:
		a.pages += pHi - a.pageHi
	default:
		return
	}
	a.pageHi = pHi
}

func (a *statsAcc) stats(usable int64) Stats {
	st := Stats{Bytes: a.bytes, Pages: a.pages, Seeks: a.seeks, MinPages: (a.bytes + usable - 1) / usable}
	if st.MinPages > 0 {
		st.NormPages = float64(st.Pages) / float64(st.MinPages)
	}
	return st
}

// eachFragment calls f with every fragment of the region — a maximal run
// [lo, hi) of consecutive disk positions, the paper's unit of query cost —
// in ascending disk order. One EachPosition pass marks the region in a
// pooled bitmap; the scan then visits (and clears) only the words between
// the lowest and highest position marked, so a single-cell region costs
// O(1) and a clustered one O(cells/64 + fragments).
func (l *Layout) eachFragment(r linear.Region, f func(lo, hi int)) {
	pb, _ := l.posBits.Get().(*[]uint64)
	if pb == nil {
		words := make([]uint64, (l.order.Len()+63)/64)
		pb = &words
	}
	words := *pb
	minW, maxW := len(words), -1
	l.order.EachPosition(r, func(pos int) {
		w := pos >> 6
		words[w] |= 1 << (uint(pos) & 63)
		if w < minW {
			minW = w
		}
		if w > maxW {
			maxW = w
		}
	})
	lo, hi := -1, -1 // the open fragment
	for wi := minW; wi <= maxW; wi++ {
		w := words[wi]
		words[wi] = 0 // scan-and-clear: the bitmap returns to the pool zeroed
		for w != 0 {
			tz := bits.TrailingZeros64(w)
			ones := bits.TrailingZeros64(^(w >> uint(tz)))
			if tz+ones == 64 {
				w = 0
			} else {
				w &^= (1<<uint(ones) - 1) << uint(tz)
			}
			if pos := wi<<6 + tz; pos != hi {
				if hi >= 0 {
					f(lo, hi)
				}
				lo = pos
			}
			hi = wi<<6 + tz + ones
		}
	}
	if hi >= 0 {
		f(lo, hi)
	}
	l.posBits.Put(pb)
}

// DiskModel estimates wall-clock I/O time from seek and transfer costs; the
// defaults approximate a late-1990s disk (10 ms seek, 10 MB/s transfer of
// 8 KB pages ≈ 0.8 ms/page).
type DiskModel struct {
	SeekMillis         float64
	TransferMillisPage float64
}

// DefaultDisk is the default DiskModel.
var DefaultDisk = DiskModel{SeekMillis: 10, TransferMillisPage: 0.8}

// Millis returns the modelled I/O time for a query's stats.
func (d DiskModel) Millis(s Stats) float64 {
	return d.SeekMillis*float64(s.Seeks) + d.TransferMillisPage*float64(s.Pages)
}
