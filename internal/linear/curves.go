package linear

import (
	"fmt"
	"math/bits"

	"repro/internal/hierarchy"
	"repro/internal/lattice"
)

func latticeOf(s *hierarchy.Schema) *lattice.Lattice { return lattice.New(s) }

// pow2Shape returns the per-dimension bit widths when every side of the grid
// is a power of two, or an error otherwise.
func pow2Shape(s *hierarchy.Schema) ([]int, error) {
	widths := make([]int, s.K())
	for d, n := range s.LeafCounts() {
		if n&(n-1) != 0 {
			return nil, fmt.Errorf("linear: dimension %q has %d leaves; space-filling curves need powers of two", s.Dims[d].Name, n)
		}
		widths[d] = bits.TrailingZeros(uint(n))
	}
	return widths, nil
}

// ZOrder returns the Z-curve (bit-interleaving, Orenstein–Merrett)
// linearization. Every side must be a power of two; dimensions of unequal
// width contribute bits only while they still have them, most significant
// bits interleaved first.
func ZOrder(s *hierarchy.Schema) (*Order, error) { return interleaved(s, "z-order", false) }

// GrayOrder returns the Gray-code curve (Faloutsos) linearization: positions
// enumerate the interleaved bits in binary-reflected Gray order, so
// consecutive cells differ in exactly one coordinate bit. Every side must be
// a power of two.
func GrayOrder(s *hierarchy.Schema) (*Order, error) { return interleaved(s, "gray-order", true) }

func interleaved(s *hierarchy.Schema, name string, gray bool) (*Order, error) {
	widths, err := pow2Shape(s)
	if err != nil {
		return nil, err
	}
	o, err := newOrder(s, name)
	if err != nil {
		return nil, err
	}
	coords := make([]int, s.K())
	for pos := range o.seq {
		decodeInterleaved(pos, widths, coords, gray)
		o.seq[pos] = int32(o.CellIndex(coords))
	}
	if err := o.fill(); err != nil {
		return nil, err
	}
	return o, nil
}

// decodeInterleaved splits the bits of pos across the dimensions, most
// significant interleaved bit first: at each level from the top, every
// dimension that still has a bit at that level contributes one bit. With
// gray=true the bits of pos are first converted from binary-reflected Gray
// rank to the Gray codeword.
func decodeInterleaved(pos int, widths []int, coords []int, gray bool) {
	total := 0
	maxW := 0
	for _, w := range widths {
		total += w
		if w > maxW {
			maxW = w
		}
	}
	if gray {
		pos ^= pos >> 1
	}
	for d := range coords {
		coords[d] = 0
	}
	bit := total - 1
	for level := maxW; level >= 1; level-- {
		for d, w := range widths {
			if w >= level {
				coords[d] |= ((pos >> bit) & 1) << (level - 1)
				bit--
			}
		}
	}
}

// Hilbert returns the Hilbert-curve linearization for a schema whose sides
// are all the same power of two (a 2^b hypercube grid), using Skilling's
// transposed-index algorithm. This covers the 2-D square grids of the
// paper's analytical comparisons and k-D cubes for ablations.
func Hilbert(s *hierarchy.Schema) (*Order, error) {
	widths, err := pow2Shape(s)
	if err != nil {
		return nil, err
	}
	b := widths[0]
	for _, w := range widths {
		if w != b {
			return nil, fmt.Errorf("linear: Hilbert needs equal power-of-two sides, got widths %v", widths)
		}
	}
	k := s.K()
	o, err := newOrder(s, "hilbert")
	if err != nil {
		return nil, err
	}
	coords := make([]int, k)
	x := make([]uint32, k)
	for pos := range o.seq {
		hilbertAxes(pos, b, x)
		for d := range coords {
			coords[d] = int(x[d])
		}
		o.seq[pos] = int32(o.CellIndex(coords))
	}
	if err := o.fill(); err != nil {
		return nil, err
	}
	return o, nil
}

// hilbertAxes converts a Hilbert-curve rank into k-dimensional coordinates
// on a 2^b-sided cube (Skilling, "Programming the Hilbert curve", 2004).
func hilbertAxes(rank, b int, x []uint32) {
	n := len(x)
	// Distribute the rank's bits round-robin into the transposed form: bit
	// (n*b−1−i) of rank becomes bit (b−1−i/n) of X[i%n].
	for i := range x {
		x[i] = 0
	}
	for i := 0; i < n*b; i++ {
		if rank&(1<<(n*b-1-i)) != 0 {
			x[i%n] |= 1 << (b - 1 - i/n)
		}
	}
	// Gray decode.
	t := x[n-1] >> 1
	for i := n - 1; i > 0; i-- {
		x[i] ^= x[i-1]
	}
	x[0] ^= t
	// Undo excess work.
	for q := uint32(2); q != 1<<b; q <<= 1 {
		p := q - 1
		for i := n - 1; i >= 0; i-- {
			if x[i]&q != 0 {
				x[0] ^= p
			} else {
				t := (x[0] ^ x[i]) & p
				x[0] ^= t
				x[i] ^= t
			}
		}
	}
}

// Hilbert2D returns the classical 2-D Hilbert curve on a 2^b × 2^b grid via
// the textbook rotation algorithm. It exists as an independent
// implementation to cross-check Hilbert (Skilling) in tests.
func Hilbert2D(s *hierarchy.Schema) (*Order, error) {
	if s.K() != 2 {
		return nil, fmt.Errorf("linear: Hilbert2D needs 2 dimensions, got %d", s.K())
	}
	widths, err := pow2Shape(s)
	if err != nil {
		return nil, err
	}
	if widths[0] != widths[1] {
		return nil, fmt.Errorf("linear: Hilbert2D needs a square grid, got widths %v", widths)
	}
	side := 1 << widths[0]
	o, err := newOrder(s, "hilbert2d")
	if err != nil {
		return nil, err
	}
	for pos := range o.seq {
		// The x/y swap orients the curve as in the paper's Figure 2(b), so
		// its characteristic vector is (6,2;6,1) in (dim 0; dim 1) order on
		// the 4×4 grid — the paper's (6,1;6,2) with its dimension labels.
		y, x := hilbertD2XY(side, pos)
		o.seq[pos] = int32(o.CellIndex([]int{x, y}))
	}
	if err := o.fill(); err != nil {
		return nil, err
	}
	return o, nil
}

// hilbertD2XY converts a rank along the 2-D Hilbert curve of the given side
// (a power of two) into x/y coordinates.
func hilbertD2XY(side, d int) (x, y int) {
	t := d
	for s := 1; s < side; s *= 2 {
		rx := 1 & (t / 2)
		ry := 1 & (t ^ rx)
		if ry == 0 {
			if rx == 1 {
				x = s - 1 - x
				y = s - 1 - y
			}
			x, y = y, x
		}
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}
