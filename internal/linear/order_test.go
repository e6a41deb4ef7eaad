package linear

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/lattice"
)

func exampleSchema() *hierarchy.Schema {
	return hierarchy.MustSchema(hierarchy.Binary("A", 2), hierarchy.Binary("B", 2))
}

// mk returns a helper that unwraps (*Order, error) pairs, failing the test
// on error.
func mk(t *testing.T) func(*Order, error) *Order {
	return func(o *Order, err error) *Order {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return o
	}
}

// TestFigure1RowMajor reproduces Figure 1: strategy P1 is the plain
// row-major order 1..16.
func TestFigure1RowMajor(t *testing.T) {
	s := exampleSchema()
	l := lattice.New(s)
	p1 := core.MustPath(l, []int{1, 1, 0, 0})
	o := mk(t)(FromPath(s, p1, false))
	g, err := o.RenderGrid()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
		{13, 14, 15, 16},
	}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("P1 grid = %v, want %v", g, want)
	}
}

// TestFigure2aQuadrant reproduces Figure 2(a): strategy P2 orders 2×2
// subgrids row-major and the subgrids themselves row-major.
func TestFigure2aQuadrant(t *testing.T) {
	s := exampleSchema()
	l := lattice.New(s)
	p2 := core.MustPath(l, []int{1, 0, 1, 0})
	o := mk(t)(FromPath(s, p2, false))
	g, err := o.RenderGrid()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{
		{1, 2, 5, 6},
		{3, 4, 7, 8},
		{9, 10, 13, 14},
		{11, 12, 15, 16},
	}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("P2 grid = %v, want %v", g, want)
	}
}

// TestFigure5SnakedP1 reproduces Figure 5(a): snaking P1 reverses alternate
// blocks at every loop level, yielding the reflected (boustrophedon) order.
func TestFigure5SnakedP1(t *testing.T) {
	s := exampleSchema()
	l := lattice.New(s)
	p1 := core.MustPath(l, []int{1, 1, 0, 0})
	o := mk(t)(FromPath(s, p1, true))
	g, err := o.RenderGrid()
	if err != nil {
		t.Fatal(err)
	}
	// Reversing alternate (0,1)-pairs, (0,2)-rows and (1,2)-half-grids of
	// the row-major order gives:
	want := [][]int{
		{1, 2, 4, 3},
		{8, 7, 5, 6},
		{16, 15, 13, 14},
		{9, 10, 12, 11},
	}
	if !reflect.DeepEqual(g, want) {
		t.Errorf("snaked P1 grid = %v, want %v", g, want)
	}
}

func TestSnakedOrdersAreNonDiagonal(t *testing.T) {
	s := exampleSchema()
	l := lattice.New(s)
	core.EnumeratePaths(l, func(p *core.Path) bool {
		steps := append([]int(nil), p.Steps()...)
		pp := core.MustPath(l, steps)
		plain := mk(t)(FromPath(s, pp, false))
		snaked := mk(t)(FromPath(s, pp, true))
		if !plain.IsDiagonal() {
			t.Errorf("unsnaked path %v should be diagonal", pp)
		}
		if snaked.IsDiagonal() {
			t.Errorf("snaked path %v should be non-diagonal", pp)
		}
		return true
	})
}

func TestFromPathVisitsAllCellsOnce(t *testing.T) {
	s := hierarchy.MustSchema(
		hierarchy.Dimension{Name: "x", Fanouts: []int{3, 2}},
		hierarchy.Dimension{Name: "y", Fanouts: []int{2, 5}},
		hierarchy.Dimension{Name: "z", Fanouts: []int{4}},
	)
	l := lattice.New(s)
	rng := rand.New(rand.NewSource(17))
	core.EnumeratePaths(l, func(p *core.Path) bool {
		if rng.Intn(4) != 0 { // sample a quarter of the 30 paths
			return true
		}
		for _, snaked := range []bool{false, true} {
			o, err := FromPath(s, p, snaked)
			if err != nil {
				t.Fatalf("path %v snaked=%v: %v", p, snaked, err)
			}
			if o.Len() != s.NumCells() {
				t.Fatalf("order covers %d of %d cells", o.Len(), s.NumCells())
			}
			for c := 0; c < o.Len(); c++ {
				if o.CellAt(o.PosOf(c)) != c {
					t.Fatalf("PosOf/CellAt mismatch at cell %d", c)
				}
			}
		}
		return true
	})
}

func TestRowMajorNesting(t *testing.T) {
	s := hierarchy.MustSchema(
		hierarchy.Uniform("x", 1, 2),
		hierarchy.Uniform("y", 1, 3),
	)
	// Outer x, inner y: y varies fastest.
	o, err := RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	wantSeq := []int{0, 1, 2, 3, 4, 5} // cell index = x*3 + y
	for p, want := range wantSeq {
		if got := o.CellAt(p); got != want {
			t.Errorf("CellAt(%d) = %d, want %d", p, got, want)
		}
	}
	// Outer y, inner x: x varies fastest.
	o2, err := RowMajor(s, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	wantSeq2 := []int{0, 3, 1, 4, 2, 5}
	for p, want := range wantSeq2 {
		if got := o2.CellAt(p); got != want {
			t.Errorf("transposed CellAt(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestAlternatingPath(t *testing.T) {
	s := hierarchy.MustSchema(
		hierarchy.Uniform("x", 3, 2),
		hierarchy.Uniform("y", 1, 2),
		hierarchy.Uniform("z", 2, 2),
	)
	p := AlternatingPath(s)
	want := []int{2, 1, 0, 2, 0, 0}
	if !reflect.DeepEqual(p.Steps(), want) {
		t.Errorf("AlternatingPath steps = %v, want %v", p.Steps(), want)
	}
}

func TestCoordsRoundTrip(t *testing.T) {
	s := hierarchy.MustSchema(
		hierarchy.Dimension{Name: "x", Fanouts: []int{5}},
		hierarchy.Dimension{Name: "y", Fanouts: []int{7}},
	)
	o := mk(t)(RowMajor(s, []int{0, 1}))
	coords := make([]int, 2)
	for c := 0; c < o.Len(); c++ {
		o.Coords(c, coords)
		if got := o.CellIndex(coords); got != c {
			t.Errorf("CellIndex(Coords(%d)) = %d", c, got)
		}
	}
}

// TestGridTooLargeRefusedBeforeAllocation: a grid is accepted exactly when
// int32 can index its cells, on random shapes and at the boundary, and every
// constructor refuses an oversized schema with the typed error instead of
// sizing its tables by it.
func TestGridTooLargeRefusedBeforeAllocation(t *testing.T) {
	const limit = 1 << 31
	check := func(shape []int) {
		t.Helper()
		prod, fits := uint64(1), true
		for _, side := range shape {
			if prod *= uint64(side); prod >= limit {
				fits = false
				break
			}
		}
		n, err := gridCells(shape)
		if fits != (err == nil) || (fits && uint64(n) != prod) || (!fits && !errors.Is(err, ErrGridTooLarge)) {
			t.Errorf("gridCells(%v) = %d, %v; product %d fits int32: %v", shape, n, err, prod, fits)
		}
	}
	for _, shape := range [][]int{
		{limit - 1}, {limit}, {1 << 16, 1 << 15}, {1<<16 - 1, 1 << 15}, {1 << 16, 1<<15 - 1},
		{2, 3, 5, 7, 11, 13, 17, 19, 23}, {46341, 46341}, {46340, 46341}, {1 << 21, 1 << 21, 1 << 21}, {1},
	} {
		check(shape)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 2000; i++ {
		shape := make([]int, 1+rng.Intn(4))
		for d := range shape {
			shape[d] = 1 + rng.Intn(1<<uint(1+rng.Intn(16)))
		}
		check(shape)
	}

	huge := hierarchy.MustSchema(
		hierarchy.Dimension{Name: "x", Fanouts: []int{1 << 16}},
		hierarchy.Dimension{Name: "y", Fanouts: []int{1 << 16}},
	)
	for name, build := range map[string]func() (*Order, error){
		"FromPath": func() (*Order, error) { return FromPath(huge, AlternatingPath(huge), true) },
		"RowMajor": func() (*Order, error) { return RowMajor(huge, []int{0, 1}) },
		"ZOrder":   func() (*Order, error) { return ZOrder(huge) },
		"Hilbert":  func() (*Order, error) { return Hilbert(huge) },
	} {
		if _, err := build(); !errors.Is(err, ErrGridTooLarge) {
			t.Errorf("%s on a 2^32-cell grid: err = %v, want ErrGridTooLarge", name, err)
		}
	}
}
