package snakes

// One benchmark per paper table and figure (see DESIGN.md §4), plus
// ablation benches for the design choices the paper motivates: DP vs
// exhaustive enumeration, snaking on/off, and curve materialization cost.
// Run with: go test -bench=. -benchmem

import (
	"context"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/cv"
	"repro/internal/experiments"
	"repro/internal/hierarchy"
	"repro/internal/lattice"
	"repro/internal/linear"
	"repro/internal/storage"
	"repro/internal/tpcd"
	"repro/internal/workload"
)

// benchWarehouse is the reduced warehouse used by the Table 4–6 benches:
// same hierarchy shapes as the paper, scaled to run in milliseconds.
func benchWarehouse(b *testing.B) *tpcd.Dataset {
	b.Helper()
	cfg := tpcd.DefaultConfig()
	cfg.PartsPerMfr = 8
	cfg.DaysPerMonth = 6
	cfg.Years = 4
	ds, err := tpcd.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

func BenchmarkTable1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3(b *testing.B) {
	// Includes materializing the 1024×1024 Hilbert curve at fanout 32.
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(experiments.Table3Fanouts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3Lattice(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if experiments.Figure3() == "" {
			b.Fatal("empty lattice rendering")
		}
	}
}

func BenchmarkFigureGrids(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.FigureGrids(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4(b *testing.B) {
	ds := benchWarehouse(b)
	mixes := []tpcd.Mix{
		{Parts: tpcd.Even, Supplier: tpcd.Even, Time: tpcd.Even},
		tpcd.PaperWorkload7(),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := experiments.NewMeasurer(ds) // fresh cache: measure, don't memoize
		m.SamplesPerClass = 16
		if _, err := experiments.Table4(m, mixes); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable5And6(b *testing.B) {
	cfg := tpcd.DefaultConfig()
	cfg.DaysPerMonth = 6
	cfg.Years = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table5(cfg, []int{4, 10}, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalLatticePath measures the headline algorithm: the DP over
// a 21×21-class lattice (two 20-level hierarchies).
func BenchmarkOptimalLatticePath(b *testing.B) {
	l := lattice.New(hierarchy.MustSchema(
		hierarchy.Binary("A", 20), hierarchy.Binary("B", 20)))
	w := workload.Uniform(l)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimal2D(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalKD measures the k-dimensional generalization on the
// TPC-D-shaped lattice.
func BenchmarkOptimalKD(b *testing.B) {
	s, err := tpcd.DefaultConfig().Schema()
	if err != nil {
		b.Fatal(err)
	}
	w := workload.Uniform(lattice.New(s))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimal(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDPvsEnumeration quantifies what the DP buys over
// exhaustive search on a lattice where enumeration is still feasible
// (C(12,6) = 924 paths).
func BenchmarkAblationDPvsEnumeration(b *testing.B) {
	l := lattice.New(hierarchy.MustSchema(
		hierarchy.Binary("A", 6), hierarchy.Binary("B", 6)))
	rng := rand.New(rand.NewSource(1))
	w := workload.Random(l, rng, 0.5)
	b.Run("dp", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := core.Optimal2D(w); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("enumeration", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = core.BestByEnumeration(w)
		}
	})
}

// BenchmarkSnakingBenefit (experiment X1): the Theorem-3 ratio across
// random workloads on the 2-D binary schema.
func BenchmarkSnakingBenefit(b *testing.B) {
	l := lattice.New(cv.BinarySchema(6))
	rng := rand.New(rand.NewSource(9))
	p := core.MustPath(l, []int{1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0})
	plain := cost.OfPath(p, false)
	snaked := cost.OfPath(p, true)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := workload.Random(l, rng, 0.5)
		ratio := plain.ExpectedCost(w) / snaked.ExpectedCost(w)
		if ratio >= 2 {
			b.Fatalf("Theorem 3 violated: ratio %v", ratio)
		}
	}
}

// BenchmarkGlobalOptimality (experiment X2): the Theorem-2 check that the
// best snaked lattice path beats the Hilbert curve, per random workload.
func BenchmarkGlobalOptimality(b *testing.B) {
	s := cv.BinarySchema(4)
	l := lattice.New(s)
	h, err := linear.Hilbert(s)
	if err != nil {
		b.Fatal(err)
	}
	hcv := cost.OfOrder(l, h)
	var paths []*cost.CV
	core.EnumeratePaths(l, func(p *core.Path) bool {
		paths = append(paths, cost.OfPath(p, true))
		return true
	})
	rng := rand.New(rand.NewSource(4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := workload.Random(l, rng, 0.5)
		best := paths[0].ExpectedCost(w)
		for _, p := range paths[1:] {
			if c := p.ExpectedCost(w); c < best {
				best = c
			}
		}
		if hc := hcv.ExpectedCost(w); hc < best-1e-9 {
			b.Fatalf("Hilbert beats all snaked lattice paths: %v < %v", hc, best)
		}
	}
}

// BenchmarkAblationSnaking compares materializing a path with and without
// snaking on a 512×512 grid.
func BenchmarkAblationSnaking(b *testing.B) {
	s := hierarchy.MustSchema(hierarchy.Binary("A", 9), hierarchy.Binary("B", 9))
	p := linear.AlternatingPath(s)
	for _, cfg := range []struct {
		name   string
		snaked bool
	}{{"plain", false}, {"snaked", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := linear.FromPath(s, p, cfg.snaked); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCurves compares materialization cost of the classical curves on
// a 512×512 grid.
func BenchmarkCurves(b *testing.B) {
	s := hierarchy.MustSchema(hierarchy.Binary("A", 9), hierarchy.Binary("B", 9))
	builders := []struct {
		name  string
		build func() (*linear.Order, error)
	}{
		{"hilbert", func() (*linear.Order, error) { return linear.Hilbert(s) }},
		{"z", func() (*linear.Order, error) { return linear.ZOrder(s) }},
		{"gray", func() (*linear.Order, error) { return linear.GrayOrder(s) }},
	}
	for _, c := range builders {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPackAndQuery measures the storage substrate: packing the reduced
// warehouse and answering one mid-size query.
func BenchmarkPackAndQuery(b *testing.B) {
	ds := benchWarehouse(b)
	o, err := linear.RowMajor(ds.Schema, []int{0, 1, 2})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("pack", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := storage.NewLayout(o, ds.BytesPerCell, ds.Config.PageBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	layout, err := storage.NewLayout(o, ds.BytesPerCell, ds.Config.PageBytes)
	if err != nil {
		b.Fatal(err)
	}
	region := linear.ClassRegion(o, lattice.Point{1, 0, 2}, []int{2, 3, 1})
	b.Run("query", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = layout.Query(region)
		}
	})
}

// BenchmarkSandwichClosure measures the Theorem-2 construction on the
// Example-3 vector.
func BenchmarkSandwichClosure(b *testing.B) {
	u, err := cv.FromSlices([]int64{27, 8, 3}, []int64{21, 3, 1}, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cv.SandwichClosure(u, 256); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationChunkOrdering compares the Deshpande-style chunked file
// organization's row-major chunk ordering against the Section-7 improvement
// — ordering chunks by the workload's optimal snaked lattice path — on
// chunk-aligned grid queries drawn from a column-heavy workload over a
// 64×64 grid with 8×8 chunks.
func BenchmarkAblationChunkOrdering(b *testing.B) {
	s := hierarchy.MustSchema(
		hierarchy.Dimension{Name: "x", Fanouts: []int{8, 2, 2, 2}},
		hierarchy.Dimension{Name: "y", Fanouts: []int{8, 2, 2, 2}},
	)
	chunkSchema := hierarchy.MustSchema(
		hierarchy.Dimension{Name: "x", Fanouts: []int{2, 2, 2}},
		hierarchy.Dimension{Name: "y", Fanouts: []int{2, 2, 2}},
	)
	chunkLat := lattice.New(chunkSchema)
	w := workload.UniformOver(chunkLat,
		lattice.Point{3, 0}, lattice.Point{2, 0}, lattice.Point{3, 1})
	opt, err := core.Optimal(w)
	if err != nil {
		b.Fatal(err)
	}
	inner := linear.RowMajorBuilder([]int{0, 1})
	builders := []struct {
		name  string
		outer func(*hierarchy.Schema) (*linear.Order, error)
	}{
		{"row-major-chunks", linear.RowMajorBuilder([]int{0, 1})},
		{"optimized-snaked-chunks", func(cs *hierarchy.Schema) (*linear.Order, error) {
			return linear.FromPath(cs, opt.Path, true)
		}},
	}
	for _, cfg := range builders {
		b.Run(cfg.name, func(b *testing.B) {
			o, err := linear.Chunked(s, []int{1, 1}, cfg.outer, inner)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(6))
			classes := w.Support()
			total := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := classes[rng.Intn(len(classes))]
				r := make(linear.Region, 2)
				for d := 0; d < 2; d++ {
					node := rng.Intn(chunkSchema.Dims[d].NodesAt(c[d]))
					lo, hi := chunkSchema.Dims[d].LeafRange(node, c[d])
					r[d] = linear.Range{Lo: lo * 8, Hi: hi * 8}
				}
				total += o.Fragments(r)
			}
			b.ReportMetric(float64(total)/float64(b.N), "fragments/op")
		})
	}
}

// BenchmarkTPCDGeneration measures dataset generation at the paper's full
// dimensions (5.04M cells).
func BenchmarkTPCDGeneration(b *testing.B) {
	cfg := tpcd.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tpcd.Build(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreSum measures an aggregate query against a warm file store
// on a 64×64 grid, one record per cell, after checking that the same query
// cold costs the pages and seeks the layout predicts.
func BenchmarkStoreSum(b *testing.B) {
	s := hierarchy.MustSchema(hierarchy.Binary("A", 6), hierarchy.Binary("B", 6))
	o, err := linear.GrayOrder(s)
	if err != nil {
		b.Fatal(err)
	}
	bytes := make([]int64, o.Len())
	for i := range bytes {
		bytes[i] = storage.FrameSize(8)
	}
	st, err := storage.CreateFileStore(filepath.Join(b.TempDir(), "bench.db"), o, bytes, 256, 1024)
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	rec := make([]byte, 8)
	for c := 0; c < o.Len(); c++ {
		if err := st.PutRecord(c, rec); err != nil {
			b.Fatal(err)
		}
	}
	region := linear.Region{{Lo: 8, Hi: 24}, {Lo: 16, Hi: 48}}
	decode := func([]byte) float64 { return 1 }
	ctx := context.Background()
	if err := st.Pool().Reset(ctx); err != nil {
		b.Fatal(err)
	}
	var tally storage.PoolTally
	if _, _, err := st.SumCtx(storage.WithPoolTally(ctx, &tally), region, decode); err != nil {
		b.Fatal(err)
	}
	if want := st.Layout().Query(region); tally.Stats().Misses != want.Pages || tally.Seeks() != want.Seeks {
		b.Fatalf("cold read took %d pages %d seeks, layout predicts %d pages %d seeks", tally.Stats().Misses, tally.Seeks(), want.Pages, want.Seeks)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := st.Sum(region, decode); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimator measures the observe path of the workload estimator.
func BenchmarkEstimator(b *testing.B) {
	l := lattice.New(hierarchy.MustSchema(
		hierarchy.Uniform("a", 2, 2), hierarchy.Uniform("b", 3, 2), hierarchy.Uniform("c", 1, 2)))
	e := workload.NewEstimator(l)
	classes := make([]lattice.Point, 0, l.Size())
	l.Points(func(p lattice.Point) { classes = append(classes, p.Clone()) })
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.Observe(classes[i%len(classes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRobustness measures the workload-sensitivity analysis on the
// TPC-D lattice.
func BenchmarkRobustness(b *testing.B) {
	s, err := tpcd.DefaultConfig().Schema()
	if err != nil {
		b.Fatal(err)
	}
	w := workload.Uniform(lattice.New(s))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Robustness(w, 0.1, 20, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
