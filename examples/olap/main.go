// OLAP: a drilldown/rollup session against a labeled star schema — the
// introduction's observation that "even a typical OLAP session … repeatedly
// invokes various grid queries". Queries are phrased against hierarchy node
// labels, executed cold against a packed file store — the pages and seeks
// the layout predicts printed next to the ones the buffer pool observed —
// fed to the workload estimator, and the learned workload drives
// re-clustering, whose chosen strategy is persisted as JSON.
package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	snakes "repro"
)

func main() {
	// Product and region hierarchies with real labels.
	product, err := snakes.NewTree("product", snakes.Branch("all products",
		snakes.Branch("apparel",
			snakes.Leaf("jeans"), snakes.Leaf("jackets"), snakes.Leaf("shirts"), snakes.Leaf("shoes")),
		snakes.Branch("home",
			snakes.Leaf("lamps"), snakes.Leaf("chairs"), snakes.Leaf("tables"), snakes.Leaf("rugs")),
	))
	if err != nil {
		log.Fatal(err)
	}
	region, err := snakes.NewTree("region", snakes.Branch("all regions",
		snakes.Branch("east", snakes.Leaf("nyc"), snakes.Leaf("boston")),
		snakes.Branch("west", snakes.Leaf("sf"), snakes.Leaf("seattle")),
	))
	if err != nil {
		log.Fatal(err)
	}
	schema, err := snakes.SchemaFromTrees(product, region)
	if err != nil {
		log.Fatal(err)
	}

	// Pack monthly sales: one 8-byte measure per cell.
	bytes := make([]int64, schema.NumCells())
	for i := range bytes {
		bytes[i] = snakes.FrameSize(8)
	}
	start, err := schema.RowMajor(0, 1) // initial layout: a plain row-major guess
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "olap-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	store, err := start.CreateFileStore(filepath.Join(dir, "sales.db"), bytes, 32, 64)
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	rng := rand.New(rand.NewSource(7))
	sales := make([]float64, schema.NumCells())
	buf := make([]byte, 8)
	for c := range sales {
		sales[c] = float64(100 + rng.Intn(900))
		binary.LittleEndian.PutUint64(buf, uint64(sales[c]))
		if err := store.PutRecord(c, buf); err != nil {
			log.Fatal(err)
		}
	}
	decode := func(rec []byte) float64 { return float64(binary.LittleEndian.Uint64(rec)) }

	// The session: rollup and drilldown, every step a grid query.
	est := schema.NewEstimator()
	session := []*snakes.GridQuery{
		schema.Query(), // cube: total sales
		schema.Query().Where("product", "apparel"),                         // drill into apparel
		schema.Query().Where("product", "apparel").Where("region", "east"), // slice east
		schema.Query().Where("product", "jeans").Where("region", "east"),   // drill to jeans
		schema.Query().Where("product", "jeans").Where("region", "nyc"),    // drill to the cell
		schema.Query().Where("region", "nyc"),                              // rollup products, keep nyc
		schema.Query().Where("region", "west"),                             // pivot west
		schema.Query().Where("product", "home").Where("region", "west"),    // drill home/west
	}
	ctx := context.Background()
	fmt.Println("OLAP session (row-major layout):")
	for _, q := range session {
		region, err := q.Region()
		if err != nil {
			log.Fatal(err)
		}
		class, err := q.Class()
		if err != nil {
			log.Fatal(err)
		}
		// A cold read: what the pool misses is what the disk would serve.
		predicted := store.Layout().Query(region)
		if err := store.Pool().Reset(ctx); err != nil {
			log.Fatal(err)
		}
		var tally snakes.PoolTally
		total, _, err := store.SumCtx(snakes.WithPoolTally(ctx, &tally), region, decode)
		if err != nil {
			log.Fatal(err)
		}
		if err := est.Observe(class); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  class %v  sum=%6.0f  predicted %d pages %d seeks, observed %d pages %d seeks\n",
			class, total, predicted.Pages, predicted.Seeks, tally.Stats().Misses, tally.Seeks())
	}

	// Re-cluster for the observed session shape.
	w, err := est.Workload(0.25)
	if err != nil {
		log.Fatal(err)
	}
	opt, err := snakes.Optimize(w)
	if err != nil {
		log.Fatal(err)
	}
	oldCost, err := start.ExpectedCost(w)
	if err != nil {
		log.Fatal(err)
	}
	newCost, err := opt.ExpectedCost(w)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlearned workload over %d queries → %v\n", est.Total(), opt)
	fmt.Printf("expected seeks/query: %.3f (row-major) → %.3f (optimized)\n", oldCost, newCost)

	// Persist the decision like a catalog would.
	blob, err := snakes.MarshalStrategy(opt)
	if err != nil {
		log.Fatal(err)
	}
	restored, err := snakes.UnmarshalStrategy(schema, blob)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("persisted strategy (%d bytes of JSON), restored as %v\n", len(blob), restored)
}
