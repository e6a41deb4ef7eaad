// Adaptive: learn the workload from the live query stream and re-cluster
// the store when it drifts — the scenario the paper credits to Tom
// Mitchell's question on "adapting the design of databases in response to
// learned workload characteristics". An ops metrics store serves per-host,
// per-hour reporting queries; incident analysis takes over with fleet-wide
// per-minute scans that run against the clustering grain; the reorganizer
// notices the regret, migrates the page file onto the new optimum in the
// background, and the same scans get cheaper.
//
// This drives the real subsystem end to end: a paged FileStore on disk, a
// snakes.Reorganizer deciding between batches of queries, and a physical
// MigrateCtx hot-swap — the mechanism `snakestore serve -adapt` runs in
// its maintenance ticks, in one call and minus the HTTP layer and catalog.
package main

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	snakes "repro"
)

func main() {
	// An ops metrics warehouse: 8 hosts in 2 racks, 24 "minutes" in 4
	// "hours". 192 grid cells, one record per cell.
	schema := snakes.NewSchema(
		snakes.Dim("host", 4, 2),
		snakes.Dim("time", 6, 4),
	)

	// Deploy the optimum for the reporting workload: single host, single
	// hour — class {0,1}.
	st0, err := snakes.Optimize(schema.ClassWorkload(snakes.Class{0, 1}))
	if err != nil {
		log.Fatal(err)
	}

	dir, err := os.MkdirTemp("", "adaptive-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	cells := make([]int64, schema.NumCells())
	for i := range cells {
		cells[i] = snakes.FrameSize(8)
	}
	fs, err := st0.CreateFileStore(filepath.Join(dir, "metrics.g0.db"), cells, 64, 16)
	if err != nil {
		log.Fatal(err)
	}
	buf := make([]byte, 8)
	for c := 0; c < schema.NumCells(); c++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(c)))
		if err := fs.PutRecord(c, buf); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("generation 0 deployed on %v\n", st0.Path)

	// The serving store lives behind an atomic pointer, exactly as in the
	// daemon: queries snapshot it, a reorganization swaps it.
	var store atomic.Pointer[snakes.FileStore]
	store.Store(fs)

	// migrate is the mechanism half of the loop: physically re-cluster into
	// the next generation file, swap the serving store, drop the old one.
	// The daemon does the same in paced steps, plus catalog persistence and
	// a scrub.
	newPath := func(gen int) string {
		return filepath.Join(dir, fmt.Sprintf("metrics.g%d.db", gen))
	}
	migrate := func(ctx context.Context, d *snakes.ReorgDecision) error {
		old := store.Load()
		dst, err := d.Strategy.MigrateCtx(ctx, old, newPath(d.Generation), 16)
		if err != nil {
			return err
		}
		store.Store(dst)
		return old.Close() // drains in-flight readers, then frees the file
	}
	reorg, err := snakes.NewReorganizer(st0, 0, snakes.ReorgConfig{
		HalfLife:        2 * time.Second, // old traffic fades fast in this demo
		Smoothing:       0.1,
		MinWeight:       50,
		RegretThreshold: 1.2,
		Hysteresis:      3,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Remember the regret measurement that tripped the policy (the gauge
	// the daemon exports as snakestore_reorg_regret).
	var tripRegret atomic.Uint64
	reorg.OnEvaluate(func(ev snakes.ReorgEvaluation) {
		if ev.Eligible {
			tripRegret.Store(math.Float64bits(ev.Regret))
		}
	})

	// serve executes one real query against the current store, reports it
	// to the reorganizer (exactly what the daemon's /query handler does),
	// and returns the physical seeks the buffer pool performed. A query
	// caught by the hot-swap sees ErrClosed and retries on the fresh
	// generation — no request is lost to a reorganization.
	serve := func(r snakes.Region) int64 {
		if err := reorg.ObserveRegion(r); err != nil {
			log.Fatal(err)
		}
		for {
			var tally snakes.PoolTally
			qctx := snakes.WithPoolTally(context.Background(), &tally)
			st := store.Load()
			plan, err := st.Plan(qctx, r)
			if err == nil {
				err = st.ReadPlanCtx(qctx, plan, func(int, []byte) error { return nil })
			}
			if errors.Is(err, snakes.ErrClosed) {
				continue
			}
			if err != nil {
				log.Fatal(err)
			}
			return tally.Seeks()
		}
	}

	rng := rand.New(rand.NewSource(2026))
	reporting := func() snakes.Region { // one host, one hour: class {0,1}
		h, b := rng.Intn(8), rng.Intn(4)
		return snakes.Region{{Lo: h, Hi: h + 1}, {Lo: 6 * b, Hi: 6*b + 6}}
	}
	incident := func() snakes.Region { // every host, one minute: class {2,0}
		m := rng.Intn(24)
		return snakes.Region{{Lo: 0, Hi: 8}, {Lo: m, Hi: m + 1}}
	}

	// Phase 1: the layout matches the traffic.
	for i := 0; i < 300; i++ {
		serve(reporting())
	}
	fmt.Printf("reporting phase served; generation still %d\n", reorg.Generation())

	// Phase 2: incident analysis takes over. Per-minute fleet scans cut
	// across the host-major clustering — count their cost on the stale
	// layout before the policy is allowed to react.
	var driftSeeks int64
	const driftQueries = 300
	for i := 0; i < driftQueries; i++ {
		driftSeeks += serve(incident())
	}
	fmt.Printf("drifted: %d fleet scans cost %.1f seeks each on the stale layout\n",
		driftQueries, float64(driftSeeks)/driftQueries)

	// Now run the policy step between batches of queries, as the daemon's
	// maintenance tick does: regret above threshold, sustained across the
	// hysteresis window, makes Trigger decide; the example then migrates,
	// hot-swaps, and reports the outcome with Finish.
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for reorg.Generation() == 0 {
		if time.Now().After(deadline) {
			log.Fatalf("reorganizer never fired: %+v", reorg.Status())
		}
		for i := 0; i < 10; i++ {
			serve(incident())
		}
		d, err := reorg.Trigger(ctx, false)
		if snakes.ReorgSkipped(err) {
			continue
		}
		if err == nil {
			err = migrate(ctx, d)
			reorg.Finish(d, err)
		}
		if err != nil {
			log.Fatal(err)
		}
	}
	status := reorg.Status()
	fmt.Printf("reorganized at regret %.2f: generation %d on %v (%d cells in %.0f ms)\n",
		math.Float64frombits(tripRegret.Load()), status.Generation, reorg.Strategy().Path,
		schema.NumCells(), status.LastReorgSecs*1e3)

	// Reopen the new generation cold (migration wrote through its pool) and
	// replay the incident scans: the seeks drop to the new layout's optimum.
	warm := store.Load()
	loaded := warm.LoadedBytes()
	if err := warm.Close(); err != nil {
		log.Fatal(err)
	}
	cold, err := reorg.Strategy().OpenFileStore(newPath(reorg.Generation()), cells, 64, 16, loaded)
	if err != nil {
		log.Fatal(err)
	}
	defer cold.Close()
	store.Store(cold)
	var afterSeeks int64
	for i := 0; i < driftQueries; i++ {
		afterSeeks += serve(incident())
	}
	fmt.Printf("after reorg: the same scans cost %.1f seeks each (%.0f%% saved)\n",
		float64(afterSeeks)/driftQueries,
		100*(1-float64(afterSeeks)/float64(driftSeeks)))
}
