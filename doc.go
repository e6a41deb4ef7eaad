// Package snakes implements optimal clustering strategies for data
// warehouse fact tables, reproducing Jagadish, Lakshmanan and Srivastava,
// "Snakes and Sandwiches: Optimal Clustering Strategies for a Data
// Warehouse" (SIGMOD 1999).
//
// A star schema's fact table is viewed as a k-dimensional grid of cells,
// one cell per combination of dimension leaf values. Grid queries select
// one hierarchy node per dimension; a query's class is the vector of the
// levels of those nodes, and a workload is a probability distribution over
// query classes. The library finds the monotone lattice path of minimum
// expected seek cost for a workload via dynamic programming (linear in the
// lattice size), applies snaking — which never increases cost and removes
// all diagonal disk jumps — and materializes the result as a concrete
// linearization of the fact table's cells. One store, FileStore, packs
// records along it and reads them in the pages and seeks the layout
// predicts; one migration, Strategy.MigrateCtx, re-clusters it onto another.
//
// # Quick start
//
//	schema := snakes.NewSchema(
//		snakes.Dim("product", 40, 5), // part → manufacturer → all
//		snakes.Dim("time", 30, 12),   // day → month → all
//	)
//	w := schema.UniformWorkload()
//	strategy, err := snakes.Optimize(w)
//	// strategy.Path is the optimal lattice path; strategy.Snaked is true.
//	order, err := strategy.Materialize()
//	// order lists every cell in disk order.
//
// The internal packages carry the full machinery: internal/core (paths and
// the DP), internal/cost and internal/cv (the characteristic-vector theory,
// Lemma 2–4 and the Theorem-2 sandwich construction), internal/linear
// (linearizations: snaked paths, row-major, Hilbert, Z, Gray), and
// internal/storage + internal/tpcd + internal/experiments (the store and
// the Section-6 evaluation).
package snakes
