package snakes_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"

	snakes "repro"
)

// The basic flow: schema → workload → optimal snaked lattice path.
func ExampleOptimize() {
	schema := snakes.NewSchema(
		snakes.Dim("product", 2, 2), // item → category → all
		snakes.Dim("time", 2, 2),    // day → month → all
	)
	w := schema.NewWorkload()
	w.Set(snakes.Class{0, 1}, 0.5) // item × month
	w.Set(snakes.Class{1, 2}, 0.5) // category × all time

	strategy, _ := snakes.Optimize(w)
	cost, _ := strategy.ExpectedCost(w)
	fmt.Printf("%v\n", strategy)
	fmt.Printf("expected seeks per query: %.2f\n", cost)
	// Output:
	// snaked ⟨(0,0) (0,1) (0,2) (1,2) (2,2)⟩
	// expected seeks per query: 1.00
}

// Snaking never increases cost, and the improvement is capped below 2×
// (Theorem 3).
func ExampleStrategy_SnakingBenefit() {
	schema := snakes.NewSchema(snakes.Dim("A", 2, 2), snakes.Dim("B", 2, 2))
	rowMajor, _ := schema.RowMajor(0, 1)
	fmt.Printf("%.3f\n", rowMajor.SnakingBenefit(snakes.Class{2, 0}))
	fmt.Printf("%.3f\n", rowMajor.SnakingBenefit(snakes.Class{1, 1}))
	// Output:
	// 1.231
	// 1.333
}

// Queries phrased against hierarchy node labels resolve to query classes
// and cell regions — Example 1's Q1 as code.
func ExampleSchema_Query() {
	jeans, _ := snakes.NewTree("jeans", snakes.Branch("any",
		snakes.Branch("levi's", snakes.Leaf("men's levi's"), snakes.Leaf("women's levi's")),
		snakes.Branch("gitano", snakes.Leaf("men's gitano"), snakes.Leaf("women's gitano")),
	))
	location, _ := snakes.NewTree("location", snakes.Branch("any",
		snakes.Branch("NY", snakes.Leaf("nyc"), snakes.Leaf("albany")),
		snakes.Branch("ONT", snakes.Leaf("toronto"), snakes.Leaf("ottawa")),
	))
	schema, _ := snakes.SchemaFromTrees(jeans, location)

	q := schema.Query().Where("jeans", "levi's").Where("location", "NY")
	class, _ := q.Class()
	region, _ := q.Region()
	fmt.Printf("class %v, region %v\n", class, region)
	// Output:
	// class (1,1), region [0,2)×[0,2)
}

// Row-major orders are lattice paths too; comparing them against the
// optimum quantifies how much the nesting choice matters.
func ExampleSchema_RowMajor() {
	schema := snakes.NewSchema(snakes.Dim("host", 4, 4), snakes.Dim("time", 4, 4))
	w := schema.ClassWorkload(snakes.Class{0, 2}) // one host, all time
	opt, _ := snakes.Optimize(w)
	good, _ := schema.RowMajor(0, 1) // host outer: host's cells contiguous
	bad, _ := schema.RowMajor(1, 0)  // time outer: host's cells scattered

	co, _ := opt.ExpectedCost(w)
	cg, _ := good.ExpectedCost(w)
	cb, _ := bad.ExpectedCost(w)
	fmt.Printf("optimal %.0f, host-major %.0f, time-major %.0f\n", co, cg, cb)
	// Output:
	// optimal 1, host-major 1, time-major 16
}

// A FileStore may be shared across goroutines: here four workers each sum
// one quadrant of the grid concurrently, and the totals add up exactly.
// Schema, Strategy, and the Region values are immutable and shared freely;
// only the GridQuery builder (not used here) is single-goroutine.
func ExampleFileStore_concurrent() {
	schema := snakes.NewSchema(snakes.Dim("A", 2, 2), snakes.Dim("B", 2, 2))
	strategy, _ := schema.RowMajor(0, 1)

	dir, _ := os.MkdirTemp("", "snakes-example")
	defer os.RemoveAll(dir)

	cells := schema.NumCells()
	bytesPerCell := make([]int64, cells)
	for i := range bytesPerCell {
		bytesPerCell[i] = snakes.FrameSize(8)
	}
	store, _ := strategy.CreateFileStore(filepath.Join(dir, "facts.db"), bytesPerCell, 256, 8)
	defer store.Close()

	// Load one record of value c into each cell c, single-threaded.
	rec := make([]byte, 8)
	for c := 0; c < cells; c++ {
		binary.LittleEndian.PutUint64(rec, math.Float64bits(float64(c)))
		snakes.PutRecord(store, c, rec)
	}

	quadrants := []snakes.Region{
		{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 2}},
		{{Lo: 0, Hi: 2}, {Lo: 2, Hi: 4}},
		{{Lo: 2, Hi: 4}, {Lo: 0, Hi: 2}},
		{{Lo: 2, Hi: 4}, {Lo: 2, Hi: 4}},
	}
	sums := make([]float64, len(quadrants))
	var wg sync.WaitGroup
	for i, q := range quadrants {
		wg.Add(1)
		go func(i int, q snakes.Region) {
			defer wg.Done()
			ctx := context.Background()
			plan, err := store.Plan(ctx, q)
			if err != nil {
				return
			}
			store.ReadPlanCellsCtx(ctx, plan, snakes.Records(func(_ int, rec []byte) error {
				sums[i] += math.Float64frombits(binary.LittleEndian.Uint64(rec))
				return nil
			}))
		}(i, q)
	}
	wg.Wait()

	total := 0.0
	for _, s := range sums {
		total += s
	}
	fmt.Printf("total %.0f\n", total) // 0+1+...+15
	// Output:
	// total 120
}

// Strategies round-trip through versioned JSON for catalog persistence.
func ExampleMarshalStrategy() {
	schema := snakes.NewSchema(snakes.Dim("a", 2), snakes.Dim("b", 3))
	st, _ := schema.PathStrategy([]int{1, 0}, true)
	blob, _ := snakes.MarshalStrategy(st)
	back, _ := snakes.UnmarshalStrategy(schema, blob)
	fmt.Println(back)
	// Output:
	// snaked ⟨(0,0) (0,1) (1,1)⟩
}
