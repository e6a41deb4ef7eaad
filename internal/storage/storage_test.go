package storage

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/linear"
)

func rowMajor4x4(t *testing.T) *linear.Order {
	t.Helper()
	s := hierarchy.MustSchema(hierarchy.Binary("A", 2), hierarchy.Binary("B", 2))
	o, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func uniformBytes(n int, b int64) []int64 {
	bs := make([]int64, n)
	for i := range bs {
		bs[i] = b
	}
	return bs
}

func TestLayoutPacking(t *testing.T) {
	o := rowMajor4x4(t)
	l, err := NewLayout(o, uniformBytes(16, 125), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.TotalBytes(); got != 2000 {
		t.Errorf("TotalBytes = %d, want 2000", got)
	}
	if got := l.TotalPages(); got != 2 {
		t.Errorf("TotalPages = %d, want 2", got)
	}
}

func TestLayoutErrors(t *testing.T) {
	o := rowMajor4x4(t)
	if _, err := NewLayout(o, uniformBytes(15, 1), 100); err == nil {
		t.Error("wrong cell count should fail")
	}
	if _, err := NewLayout(o, uniformBytes(16, 1), 0); err == nil {
		t.Error("zero page size should fail")
	}
	bad := uniformBytes(16, 1)
	bad[3] = -1
	if _, err := NewLayout(o, bad, 100); err == nil {
		t.Error("negative cell size should fail")
	}
}

// TestCellTooLargeRefused: a cell's fill lives in a uint32, so an extent of
// 4 GiB or more is refused with the typed error — by both layouts and by the
// store constructor — and one byte less is packed exactly.
func TestCellTooLargeRefused(t *testing.T) {
	o := rowMajor4x4(t)
	for _, cell := range []int{0, 7, 15} {
		bytes := uniformBytes(16, 100)
		bytes[cell] = 1<<32 - 1
		l, err := NewFileLayout(o, bytes, DefaultPageSize)
		if err != nil {
			t.Fatalf("an extent of 4 GiB − 1 in cell %d: %v", cell, err)
		}
		if got := l.CellCapacity(cell); got != 1<<32-1 || l.TotalBytes() != 1<<32-1+1500 {
			t.Errorf("cell %d packed as %d of %d bytes", cell, got, l.TotalBytes())
		}
		bytes[cell] = 1 << 32
		if _, err := NewLayout(o, bytes, DefaultPageSize); !errors.Is(err, ErrCellTooLarge) {
			t.Errorf("NewLayout with a 4 GiB cell %d: err = %v, want ErrCellTooLarge", cell, err)
		}
		if _, err := NewFileLayout(o, bytes, DefaultPageSize); !errors.Is(err, ErrCellTooLarge) {
			t.Errorf("NewFileLayout with a 4 GiB cell %d: err = %v, want ErrCellTooLarge", cell, err)
		}
		pf := &gatedFile{pageSize: DefaultPageSize}
		if _, err := NewFileStoreOn(pf, o, bytes, 4, nil); !errors.Is(err, ErrCellTooLarge) {
			t.Errorf("NewFileStoreOn with a 4 GiB cell %d: err = %v, want ErrCellTooLarge", cell, err)
		}
	}
}

func TestQueryWholeGrid(t *testing.T) {
	o := rowMajor4x4(t)
	l, err := NewLayout(o, uniformBytes(16, 100), 250)
	if err != nil {
		t.Fatal(err)
	}
	st := l.Query(linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}})
	if st.Bytes != 1600 {
		t.Errorf("Bytes = %d, want 1600", st.Bytes)
	}
	if st.Seeks != 1 {
		t.Errorf("Seeks = %d, want 1 for a full scan", st.Seeks)
	}
	if st.Pages != 7 {
		t.Errorf("Pages = %d, want ⌈1600/250⌉ = 7", st.Pages)
	}
	if st.NormPages != 1 {
		t.Errorf("NormPages = %v, want 1", st.NormPages)
	}
}

func TestQueryColumnSeeks(t *testing.T) {
	// One 100-byte cell per page slot: a column under row-major order is 4
	// separated cells → 4 seeks when pages are small.
	o := rowMajor4x4(t)
	l, err := NewLayout(o, uniformBytes(16, 100), 100)
	if err != nil {
		t.Fatal(err)
	}
	st := l.Query(linear.Region{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 2}})
	if st.Seeks != 4 {
		t.Errorf("Seeks = %d, want 4", st.Seeks)
	}
	if st.Pages != 4 {
		t.Errorf("Pages = %d, want 4", st.Pages)
	}
	if st.MinPages != 4 {
		t.Errorf("MinPages = %d, want 4", st.MinPages)
	}
}

func TestQueryMergesAcrossEmptyCells(t *testing.T) {
	// Cells 1 and 2 of the first row are empty: the row is still one
	// contiguous read.
	o := rowMajor4x4(t)
	bytes := uniformBytes(16, 100)
	bytes[o.CellAt(1)] = 0
	bytes[o.CellAt(2)] = 0
	l, err := NewLayout(o, bytes, 100)
	if err != nil {
		t.Fatal(err)
	}
	st := l.Query(linear.Region{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 4}})
	if st.Seeks != 1 {
		t.Errorf("Seeks = %d, want 1 (empty cells must not split runs)", st.Seeks)
	}
	if st.Bytes != 200 {
		t.Errorf("Bytes = %d, want 200", st.Bytes)
	}
}

func TestQueryEmptyRegion(t *testing.T) {
	o := rowMajor4x4(t)
	bytes := make([]int64, 16) // everything empty
	l, err := NewLayout(o, bytes, 100)
	if err != nil {
		t.Fatal(err)
	}
	st := l.Query(linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}})
	if st.Seeks != 0 || st.Pages != 0 || st.NormPages != 0 {
		t.Errorf("empty query stats = %+v, want zeros", st)
	}
}

func TestAdjacentPageRangesMergeIntoOneSeek(t *testing.T) {
	// Two byte runs separated by exactly one empty... here: runs ending and
	// starting on adjacent pages still count as one sequential access.
	o := rowMajor4x4(t)
	bytes := uniformBytes(16, 50) // two cells per 100-byte page
	l, err := NewLayout(o, bytes, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 occupies pages 0–1, row 1 pages 2–3: querying both rows is one
	// seek; querying rows 0 and 2 is two.
	if st := l.Query(linear.Region{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 4}}); st.Seeks != 1 {
		t.Errorf("rows 0–1: Seeks = %d, want 1", st.Seeks)
	}
	twoRows := l.Query(linear.Region{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 4}})
	if twoRows.Seeks != 1 {
		t.Errorf("row 0: Seeks = %d, want 1", twoRows.Seeks)
	}
}

func TestCellSplitAcrossPages(t *testing.T) {
	// 300-byte cells on 250-byte pages: cells straddle page boundaries and
	// a single-cell query touches two pages but needs one seek.
	o := rowMajor4x4(t)
	l, err := NewLayout(o, uniformBytes(16, 300), 250)
	if err != nil {
		t.Fatal(err)
	}
	st := l.Query(linear.Region{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 2}}) // second cell: bytes [300,600)
	if st.Seeks != 1 {
		t.Errorf("Seeks = %d, want 1", st.Seeks)
	}
	if st.Pages != 2 { // pages 1 and 2
		t.Errorf("Pages = %d, want 2", st.Pages)
	}
	if st.MinPages != 2 {
		t.Errorf("MinPages = %d, want 2", st.MinPages)
	}
}

// TestSeeksMatchFragmentsWhenCellsArePages packs one cell per page, making
// page seeks equal cell-level fragments — tying the storage simulator to the
// analytic model.
func TestSeeksMatchFragmentsWhenCellsArePages(t *testing.T) {
	s := hierarchy.MustSchema(hierarchy.Binary("A", 2), hierarchy.Binary("B", 3))
	rng := rand.New(rand.NewSource(3))
	orders := []*linear.Order{}
	if o, err := linear.RowMajor(s, []int{0, 1}); err == nil {
		orders = append(orders, o)
	}
	if o, err := linear.ZOrder(s); err == nil {
		orders = append(orders, o)
	}
	if o, err := linear.GrayOrder(s); err == nil {
		orders = append(orders, o)
	}
	for _, o := range orders {
		l, err := NewLayout(o, uniformBytes(o.Len(), 100), 100)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			r := make(linear.Region, 2)
			for d, n := range s.LeafCounts() {
				lo := rng.Intn(n)
				r[d] = linear.Range{Lo: lo, Hi: lo + 1 + rng.Intn(n-lo)}
			}
			frag := o.Fragments(r)
			st := l.Query(r)
			if int64(frag) != st.Seeks {
				t.Fatalf("%s region %v: fragments %d ≠ seeks %d", o.Name, r, frag, st.Seeks)
			}
		}
	}
}

func TestDiskModel(t *testing.T) {
	st := Stats{Pages: 10, Seeks: 2}
	got := DefaultDisk.Millis(st)
	want := 2*10.0 + 10*0.8
	if got != want {
		t.Errorf("Millis = %v, want %v", got, want)
	}
}
