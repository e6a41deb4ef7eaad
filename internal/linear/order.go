// Package linear materializes clustering strategies as linearizations of
// the k-dimensional cell grid of a star schema: lattice-path orders (snaked
// and unsnaked), the row-major family, and the classical space-filling
// curves the paper compares against (Hilbert, Z, Gray-code).
//
// A linearization assigns every grid cell a distinct disk position. The
// cost machinery only ever needs two things from it: the number of
// contiguous fragments covering a query region, and the edge-type counts
// (characteristic vector) of consecutive-cell transitions.
package linear

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/hierarchy"
)

// Order is a linearization of the cells of a schema's grid. Cells are
// indexed in mixed radix over the dimensions' leaf coordinates, dimension 0
// slowest; positions are disk order.
type Order struct {
	Name   string
	schema *hierarchy.Schema
	shape  []int
	stride []int   // cell-index strides per dimension
	seq    []int32 // seq[pos] = cell at disk position pos
	pos    []int32 // pos[cell] = disk position of cell
}

// ErrGridTooLarge marks a schema whose grid has 2^31 cells or more: cell ids
// and disk positions are kept as int32 (8 bytes a cell for the two tables).
var ErrGridTooLarge = errors.New("linear: grid has 2^31 cells or more")

// gridCells returns the cell count of a grid of the given shape, refusing
// one that int32 cannot index; a side that is not positive is a leaf count
// that already overflowed.
func gridCells(shape []int) (int, error) {
	n := 1
	for _, side := range shape {
		if side <= 0 || n > math.MaxInt32/side {
			return 0, fmt.Errorf("%w: shape %v", ErrGridTooLarge, shape)
		}
		n *= side
	}
	return n, nil
}

// newOrder allocates an order for the schema with the given name; seq must
// be filled by the caller via fill. The grid is sized before anything is
// allocated, so an oversized schema costs an error, not memory.
func newOrder(s *hierarchy.Schema, name string) (*Order, error) {
	shape := s.LeafCounts()
	n, err := gridCells(shape)
	if err != nil {
		return nil, err
	}
	stride := make([]int, len(shape))
	for d, at := len(shape)-1, 1; d >= 0; d-- {
		stride[d] = at
		at *= shape[d]
	}
	return &Order{
		Name:   name,
		schema: s,
		shape:  shape,
		stride: stride,
		seq:    make([]int32, n),
		pos:    make([]int32, n),
	}, nil
}

// fill completes the inverse index and validates that seq is a permutation.
func (o *Order) fill() error {
	for i := range o.pos {
		o.pos[i] = -1
	}
	for p, c := range o.seq {
		if c < 0 || int(c) >= len(o.seq) {
			return fmt.Errorf("linear: order %q places invalid cell %d at position %d", o.Name, c, p)
		}
		if o.pos[c] != -1 {
			return fmt.Errorf("linear: order %q visits cell %d twice", o.Name, c)
		}
		o.pos[c] = int32(p)
	}
	return nil
}

// Schema returns the schema of the grid.
func (o *Order) Schema() *hierarchy.Schema { return o.schema }

// Len returns the number of cells.
func (o *Order) Len() int { return len(o.seq) }

// Shape returns the per-dimension leaf counts.
func (o *Order) Shape() []int { return append([]int(nil), o.shape...) }

// TableBytes returns the heap behind the order's two position tables.
func (o *Order) TableBytes() int64 { return 4 * int64(cap(o.seq)+cap(o.pos)) }

// CellAt returns the cell stored at disk position p.
func (o *Order) CellAt(p int) int { return int(o.seq[p]) }

// PosOf returns the disk position of the given cell.
func (o *Order) PosOf(cell int) int { return int(o.pos[cell]) }

// CellIndex returns the cell index of the given per-dimension coordinates.
func (o *Order) CellIndex(coords []int) int {
	idx := 0
	for d, c := range coords {
		idx += c * o.stride[d]
	}
	return idx
}

// Coords decodes a cell index into per-dimension coordinates, writing into
// dst (which must have length k) and returning it.
func (o *Order) Coords(cell int, dst []int) []int {
	for d := range dst {
		dst[d] = cell / o.stride[d]
		cell %= o.stride[d]
	}
	return dst
}

// loop describes one loop of a lattice-path linearization, innermost first.
type loop struct {
	dim    int // dimension stepped
	fanout int // number of iterations
	place  int // coordinate contribution of one iteration step
}

// pathLoops compiles a lattice path into its loop nest.
func pathLoops(s *hierarchy.Schema, p *core.Path) []loop {
	steps := p.Steps()
	loops := make([]loop, len(steps))
	level := make([]int, s.K()) // current level per dimension
	for i, d := range steps {
		dim := s.Dims[d]
		loops[i] = loop{
			dim:    d,
			fanout: dim.Fanout(level[d] + 1),
			place:  dim.BlockSize(level[d]),
		}
		level[d]++
	}
	return loops
}

// FromPath materializes the clustering strategy of a monotone lattice path.
// With snaked=false, the loops run in plain mixed-radix order (each wrap of
// an inner loop is a diagonal jump). With snaked=true, the direction of each
// loop index reverses on every traversal (Definition 5), which is exactly a
// reflected mixed-radix enumeration: every consecutive pair of cells then
// differs in a single dimension, so the snaked strategy is non-diagonal.
func FromPath(s *hierarchy.Schema, p *core.Path, snaked bool) (*Order, error) {
	name := "path" + p.String()
	if snaked {
		name = "snaked-" + name
	}
	o, err := newOrder(s, name)
	if err != nil {
		return nil, err
	}
	loops := pathLoops(s, p)
	// prefix[i] = product of fanouts of loops 0..i−1 (cells per full run of
	// the loops inside loop i).
	prefix := make([]int, len(loops)+1)
	prefix[0] = 1
	for i, lp := range loops {
		prefix[i+1] = prefix[i] * lp.fanout
	}
	if prefix[len(loops)] != o.Len() {
		return nil, fmt.Errorf("linear: path %v covers %d of %d cells", p, prefix[len(loops)], o.Len())
	}
	coords := make([]int, s.K())
	for pos := range o.seq {
		for d := range coords {
			coords[d] = 0
		}
		for i := len(loops) - 1; i >= 0; i-- {
			digit := pos / prefix[i] % loops[i].fanout
			if snaked && (pos/prefix[i+1])%2 == 1 {
				digit = loops[i].fanout - 1 - digit
			}
			coords[loops[i].dim] += digit * loops[i].place
		}
		o.seq[pos] = int32(o.CellIndex(coords))
	}
	if err := o.fill(); err != nil {
		return nil, err
	}
	return o, nil
}

// RowMajor materializes the row-major order with the given outer-to-inner
// dimension nesting (dims[len−1] varies fastest).
func RowMajor(s *hierarchy.Schema, dims []int) (*Order, error) {
	l := latticeOf(s)
	p, err := core.RowMajor(l, dims)
	if err != nil {
		return nil, err
	}
	o, err := FromPath(s, p, false)
	if err != nil {
		return nil, err
	}
	o.Name = fmt.Sprintf("row-major%v", dims)
	return o, nil
}

// AlternatingPath returns the lattice path that interleaves the dimensions
// level by level: it steps each dimension once per round (last dimension
// innermost, matching interleaved-bit significance) until all are exhausted.
// On binary hierarchies its unsnaked strategy is the Z-curve (bit
// interleaving) and its snaked strategy is the Gray-code curve.
func AlternatingPath(s *hierarchy.Schema) *core.Path {
	l := latticeOf(s)
	tops := l.Tops()
	var steps []int
	for level := 0; ; level++ {
		any := false
		for d := len(tops) - 1; d >= 0; d-- {
			if level < tops[d] {
				steps = append(steps, d)
				any = true
			}
		}
		if !any {
			break
		}
	}
	return core.MustPath(l, steps)
}
