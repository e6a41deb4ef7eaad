package linear

import (
	"fmt"
	"sort"
	"strconv"

	"repro/internal/lattice"
)

// Range is a half-open coordinate interval [Lo, Hi) in one dimension.
type Range struct {
	Lo, Hi int
}

// Region is a grid query's footprint: one coordinate range per dimension.
// Class-(c) regions are the blocks under one hierarchy node per dimension.
type Region []Range

// Size returns the number of cells in the region.
func (r Region) Size() int {
	n := 1
	for _, rng := range r {
		n *= rng.Hi - rng.Lo
	}
	return n
}

// Contains reports whether the coordinates lie inside the region.
func (r Region) Contains(coords []int) bool {
	for d, rng := range r {
		if coords[d] < rng.Lo || coords[d] >= rng.Hi {
			return false
		}
	}
	return true
}

func (r Region) String() string {
	b := make([]byte, 0, 16*len(r))
	for d, rng := range r {
		if d > 0 {
			b = append(b, "×"...)
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(rng.Lo), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(rng.Hi), 10)
		b = append(b, ')')
	}
	return string(b)
}

// ClassRegion returns the region of the block of class c whose per-dimension
// node indices are given. Node indices at level c[d] run in leaf order.
func ClassRegion(o *Order, c lattice.Point, nodes []int) Region {
	r := make(Region, len(c))
	for d, lv := range c {
		lo, hi := o.schema.Dims[d].LeafRange(nodes[d], lv)
		r[d] = Range{lo, hi}
	}
	return r
}

// Positions returns the sorted disk positions of all cells of the region.
func (o *Order) Positions(r Region) []int {
	ps := make([]int, 0, r.Size())
	o.EachPosition(r, func(pos int) { ps = append(ps, pos) })
	sort.Ints(ps)
	return ps
}

// EachPosition calls f with the disk position of every cell of the region,
// in region-iteration (not disk) order. The cell index is maintained
// incrementally across the coordinate odometer (one stride add per step
// instead of a full CellIndex dot product), and nothing is allocated beyond
// the odometer, so hot paths that want position-set structure (e.g. a
// bitmap) can build it without the sorted slice Positions returns.
func (o *Order) EachPosition(r Region, f func(pos int)) {
	for _, rng := range r {
		if rng.Hi <= rng.Lo {
			return
		}
	}
	coords := make([]int, len(r))
	idx := 0
	for d := range coords {
		coords[d] = r[d].Lo
		idx += r[d].Lo * o.stride[d]
	}
	for {
		f(int(o.pos[idx]))
		d := len(coords) - 1
		for d >= 0 {
			coords[d]++
			idx += o.stride[d]
			if coords[d] < r[d].Hi {
				break
			}
			coords[d] = r[d].Lo
			idx -= (r[d].Hi - r[d].Lo) * o.stride[d]
			d--
		}
		if d < 0 {
			break
		}
	}
}

// Fragments returns the number of contiguous disk fragments needed to cover
// the region under this order: the number of maximal runs of consecutive
// positions. This is the paper's seek-count surrogate for query cost.
func (o *Order) Fragments(r Region) int {
	ps := o.Positions(r)
	if len(ps) == 0 {
		return 0
	}
	runs := 1
	for i := 1; i < len(ps); i++ {
		if ps[i] != ps[i-1]+1 {
			runs++
		}
	}
	return runs
}

// EdgeTypes counts the linearization's edges by type. The type of the edge
// between consecutive cells u, v is the minimal query class whose blocks can
// contain both: per dimension, the lowest hierarchy level at which u and v
// share an ancestor (level 0 when the coordinates are equal). The result is
// indexed by the lattice's dense class index: a generalized characteristic
// vector. An edge is diagonal iff its type has two or more nonzero
// components.
func (o *Order) EdgeTypes(l *lattice.Lattice) []int64 {
	k := o.schema.K()
	cv := make([]int64, l.Size())
	a := make([]int, k)
	b := make([]int, k)
	t := make(lattice.Point, k)
	for p := 0; p+1 < len(o.seq); p++ {
		o.Coords(int(o.seq[p]), a)
		o.Coords(int(o.seq[p+1]), b)
		for d := 0; d < k; d++ {
			t[d] = sharedLevel(o.schema.Dims[d], a[d], b[d])
		}
		cv[l.Index(t)]++
	}
	return cv
}

// sharedLevel returns the lowest level at which the two leaf coordinates of
// the dimension share an ancestor: 0 when equal.
func sharedLevel(d interface {
	Levels() int
	Ancestor(leaf, level int) int
}, x, y int) int {
	if x == y {
		return 0
	}
	for lv := 1; lv <= d.Levels(); lv++ {
		if d.Ancestor(x, lv) == d.Ancestor(y, lv) {
			return lv
		}
	}
	panic("linear: coordinates share no ancestor; corrupt hierarchy")
}

// IsDiagonal reports whether the strategy has at least one diagonal edge
// (Section 3): an edge whose endpoints differ in two or more dimensions.
func (o *Order) IsDiagonal() bool {
	k := o.schema.K()
	a := make([]int, k)
	b := make([]int, k)
	for p := 0; p+1 < len(o.seq); p++ {
		o.Coords(int(o.seq[p]), a)
		o.Coords(int(o.seq[p+1]), b)
		diffs := 0
		for d := 0; d < k; d++ {
			if a[d] != b[d] {
				diffs++
			}
		}
		if diffs >= 2 {
			return true
		}
	}
	return false
}

// RenderGrid renders a 2-D order as the matrix of 1-based disk positions,
// in the style of the paper's Figures 1, 2 and 5: dimension 0 indexes rows,
// dimension 1 columns.
func (o *Order) RenderGrid() ([][]int, error) {
	if o.schema.K() != 2 {
		return nil, fmt.Errorf("linear: RenderGrid needs 2 dimensions, got %d", o.schema.K())
	}
	rows, cols := o.shape[0], o.shape[1]
	g := make([][]int, rows)
	for i := range g {
		g[i] = make([]int, cols)
		for j := range g[i] {
			g[i][j] = o.PosOf(o.CellIndex([]int{i, j})) + 1
		}
	}
	return g, nil
}
