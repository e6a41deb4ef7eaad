package linear

import (
	"fmt"

	"repro/internal/hierarchy"
)

// Chunked composes a two-level clustering in the style of Deshpande et
// al.'s chunked file organization (paper Section 7): the grid is cut into
// chunks along hierarchy boundaries — one chunk per block of the query
// class given by chunkLevels — an inner strategy orders the cells of each
// chunk, and an outer strategy orders the chunks themselves. The paper
// observes that replacing the chunk store's row-major chunk ordering with a
// (snaked) lattice path is a drop-in improvement; this constructor makes
// both variants expressible so they can be compared.
//
// The outer builder receives the chunk grid's schema (the dimension levels
// above chunkLevels) and the inner builder the within-chunk schema (the
// levels below). Either may produce any Order — row-major, a (snaked)
// lattice path, or a curve.
func Chunked(
	s *hierarchy.Schema,
	chunkLevels []int,
	outer func(*hierarchy.Schema) (*Order, error),
	inner func(*hierarchy.Schema) (*Order, error),
) (*Order, error) {
	if len(chunkLevels) != s.K() {
		return nil, fmt.Errorf("linear: %d chunk levels for %d dimensions", len(chunkLevels), s.K())
	}
	outerDims := make([]hierarchy.Dimension, s.K())
	innerDims := make([]hierarchy.Dimension, s.K())
	for d, dim := range s.Dims {
		lv := chunkLevels[d]
		if lv < 0 || lv > dim.Levels() {
			return nil, fmt.Errorf("linear: chunk level %d out of range [0,%d] for dimension %q",
				lv, dim.Levels(), dim.Name)
		}
		// Zero-level splits leave a degenerate fanout-1 side so both
		// sub-schemas stay valid.
		outerDims[d] = hierarchy.Dimension{Name: dim.Name, Fanouts: padOne(dim.Fanouts[lv:])}
		innerDims[d] = hierarchy.Dimension{Name: dim.Name, Fanouts: padOne(dim.Fanouts[:lv])}
	}
	outerSchema, err := hierarchy.NewSchema(outerDims...)
	if err != nil {
		return nil, err
	}
	innerSchema, err := hierarchy.NewSchema(innerDims...)
	if err != nil {
		return nil, err
	}
	oo, err := outer(outerSchema)
	if err != nil {
		return nil, fmt.Errorf("linear: outer order: %w", err)
	}
	io, err := inner(innerSchema)
	if err != nil {
		return nil, fmt.Errorf("linear: inner order: %w", err)
	}

	o, err := newOrder(s, fmt.Sprintf("chunked[%v outer=%s inner=%s]", chunkLevels, oo.Name, io.Name))
	if err != nil {
		return nil, err
	}
	k := s.K()
	chunkCoords := make([]int, k)
	cellCoords := make([]int, k)
	coords := make([]int, k)
	innerSize := innerSchema.NumCells()
	pos := 0
	for cp := 0; cp < oo.Len(); cp++ {
		oo.Coords(oo.CellAt(cp), chunkCoords)
		for ip := 0; ip < innerSize; ip++ {
			io.Coords(io.CellAt(ip), cellCoords)
			for d := 0; d < k; d++ {
				coords[d] = chunkCoords[d]*innerSchema.Dims[d].Leaves() + cellCoords[d]
			}
			o.seq[pos] = int32(o.CellIndex(coords))
			pos++
		}
	}
	if err := o.fill(); err != nil {
		return nil, err
	}
	return o, nil
}

// padOne substitutes a single fanout-1 level for an empty level list, so a
// fully-collapsed side of a chunk split remains a valid dimension.
func padOne(fanouts []int) []int {
	if len(fanouts) == 0 {
		return []int{1}
	}
	return append([]int(nil), fanouts...)
}

// RowMajorBuilder adapts RowMajor to the Chunked builder signature.
func RowMajorBuilder(dims []int) func(*hierarchy.Schema) (*Order, error) {
	return func(s *hierarchy.Schema) (*Order, error) { return RowMajor(s, dims) }
}

// SnakedAlternatingBuilder builds the snaked alternating lattice path over
// a sub-schema — a good default chunk ordering.
func SnakedAlternatingBuilder() func(*hierarchy.Schema) (*Order, error) {
	return func(s *hierarchy.Schema) (*Order, error) {
		return FromPath(s, AlternatingPath(s), true)
	}
}
