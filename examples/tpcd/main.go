// TPC-D: the paper's Section-6 evaluation in miniature — generate the
// synthetic LineItem warehouse, derive the TPC-D query-class workload,
// optimize, pack, and measure against row-major baselines.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/linear"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

func main() {
	cfg := tpcd.DefaultConfig()
	cfg.PartsPerMfr = 10 // keep the example quick; -full sizes live in cmd/snakebench
	cfg.DaysPerMonth = 6
	cfg.Years = 4

	ds, err := tpcd.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	sum := ds.Summarize()
	fmt.Printf("warehouse: %v\n", ds.Schema)
	fmt.Printf("%d cells, %d LineItem records (%.1f MB, %d empty cells)\n",
		sum.Cells, sum.Records, float64(sum.TotalBytes)/1e6, sum.EmptyCells)

	// Build a workload straight from the TPC-D query mix: Q1 and Q6
	// dominate, the others share the rest.
	w, err := ds.QueryClassWorkload(map[string]float64{
		"Q1": 0.25, "Q6": 0.25, "Q5": 0.10, "Q9": 0.10,
		"Q14": 0.10, "Q15": 0.10, "Q19": 0.10,
	})
	if err != nil {
		log.Fatal(err)
	}

	opt, err := core.Optimal(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\noptimal lattice path for the TPC-D query mix:\n  %v\n", opt.Path)

	m := experiments.NewMeasurer(ds)
	m.SamplesPerClass = 24
	fmt.Printf("\n%-28s %14s %14s\n", "strategy", "norm blocks", "seeks/query")
	for _, snaked := range []bool{false, true} {
		st, err := m.PathStats(opt.Path, snaked)
		if err != nil {
			log.Fatal(err)
		}
		seeks, norm := experiments.Expected(ds.Lattice, st, w)
		name := "optimal lattice path"
		if snaked {
			name = "snaked " + name
		}
		fmt.Printf("%-28s %14.2f %14.2f\n", name, norm, seeks)
	}
	for _, perm := range experiments.Permutations3 {
		st, err := m.RowMajorStats(perm)
		if err != nil {
			log.Fatal(err)
		}
		seeks, norm := experiments.Expected(ds.Lattice, st, w)
		fmt.Printf("%-28s %14.2f %14.2f\n", fmt.Sprintf("row major %v", perm), norm, seeks)
	}
	fmt.Println("\n(dimension order: 0=parts, 1=supplier, 2=time)")

	// Execute a real aggregate query against the packed store: total
	// quantity shipped by manufacturer 2 in year 1 (TPC-D Q9 shape).
	runAggregate(ds, opt)
}

// runAggregate loads the LineItem records into a file store clustered by
// the snaked optimal path and executes SUM(quantity) for one grid query
// cold, reporting the I/O the layout predicts next to what it cost.
func runAggregate(ds *tpcd.Dataset, opt core.Result) {
	order, err := linear.FromPath(ds.Schema, opt.Path, true)
	if err != nil {
		log.Fatal(err)
	}
	// Reserve framed capacity per cell: each record stores a 4-byte
	// quantity payload.
	bytes := make([]int64, len(ds.BytesPerCell))
	for i, b := range ds.BytesPerCell {
		records := b / int64(ds.Config.RecordBytes)
		bytes[i] = records * storage.FrameSize(4)
	}
	dir, err := os.MkdirTemp("", "tpcd-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := storage.CreateFileStore(filepath.Join(dir, "lineitem.db"), order, bytes, int(ds.Config.PageBytes), 256)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	shape := ds.Schema.LeafCounts()
	payload := make([]byte, 4)
	var want int64
	daysPerYear := ds.Config.DaysPerMonth * ds.Config.MonthsPerYear
	region := linear.Region{
		{Lo: 2 * ds.Config.PartsPerMfr, Hi: 3 * ds.Config.PartsPerMfr}, // manufacturer 2
		{Lo: 0, Hi: shape[1]},                  // all suppliers
		{Lo: daysPerYear, Hi: 2 * daysPerYear}, // year 1
	}
	coords := make([]int, 3)
	ds.EachRecord(func(li *tpcd.LineItem) bool {
		p, s, d := li.Cell()
		binary.LittleEndian.PutUint32(payload, uint32(li.Quantity))
		cell := order.CellIndex([]int{p, s, d})
		if err := store.PutRecord(cell, payload); err != nil {
			log.Fatal(err)
		}
		coords[0], coords[1], coords[2] = p, s, d
		if region.Contains(coords) {
			want += int64(li.Quantity)
		}
		return true
	})
	ctx := context.Background()
	predicted := store.Layout().Query(region)
	if err := store.Pool().Reset(ctx); err != nil {
		log.Fatal(err)
	}
	var tally storage.PoolTally
	got, _, err := store.SumCtx(storage.WithPoolTally(ctx, &tally), region, func(rec []byte) float64 {
		return float64(binary.LittleEndian.Uint32(rec))
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nSUM(quantity) for manufacturer 2 × year 1: %.0f (expected %d)\n", got, want)
	fmt.Printf("executed in: predicted %d pages %d seeks, observed %d pages %d seeks\n",
		predicted.Pages, predicted.Seeks, tally.Stats().Misses, tally.Seeks())
}
