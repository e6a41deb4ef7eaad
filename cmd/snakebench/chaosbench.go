package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/linear"
	"repro/internal/storage"
	"repro/internal/tpcd"
)

// chaosScrubRate is the paced scrub rate (pages/sec) the overhead phase
// runs at — the serving daemon's default, so the measured p99 overhead is
// what a default `snakestore serve` deployment would see.
const chaosScrubRate = 128.0

// ChaosReport is the machine-readable result of one self-healing
// benchmark run, written as BENCH_chaos.json. It answers the three
// operational questions about the parity layer: how fast repair runs, how
// long a corruption burst leaves the store unhealthy, and what the paced
// scrubber costs the query stream's tail latency.
type ChaosReport struct {
	Name     string `json:"name"`
	Seed     uint64 `json:"seed"`
	Full     bool   `json:"full"`
	Strategy string `json:"strategy"`

	Cells         int   `json:"cells"`
	RecordsLoaded int64 `json:"recordsLoaded"`
	PageBytes     int64 `json:"pageBytes"`
	TotalPages    int64 `json:"totalPages"`
	PoolFrames    int   `json:"poolFrames"`

	ParityGroup        int     `json:"parityGroup"`
	ParityOverheadPct  float64 `json:"parityOverheadPct"`
	ParityBuildSeconds float64 `json:"parityBuildSeconds"`

	// Repair throughput and time-to-healthy after one seeded burst of
	// repairable corruption (one fault in as many parity groups as exist).
	BurstFaults          int     `json:"burstFaults"`
	RepairedPages        int64   `json:"repairedPages"`
	RepairSeconds        float64 `json:"repairSeconds"`
	RepairPagesPerSecond float64 `json:"repairPagesPerSecond"`
	// TimeToHealthySeconds spans fault injection → repair sweep → clean
	// verify, the interval /healthz would report degraded/healing.
	TimeToHealthySeconds float64 `json:"timeToHealthySeconds"`

	// Query tail latency with and without a concurrent paced scrub.
	Queries              int     `json:"queries"`
	ScrubRatePagesPerSec float64 `json:"scrubRatePagesPerSec"`
	BaselineLatencyMsP50 float64 `json:"baselineLatencyMsP50"`
	BaselineLatencyMsP99 float64 `json:"baselineLatencyMsP99"`
	ScrubLatencyMsP50    float64 `json:"scrubLatencyMsP50"`
	ScrubLatencyMsP99    float64 `json:"scrubLatencyMsP99"`
	ScrubOverheadP99Pct  float64 `json:"scrubOverheadP99Pct"`
}

// Summary is the one-line human rendering of the report.
func (r *ChaosReport) Summary() string {
	return fmt.Sprintf("repair %.0f pages/s, time-to-healthy %.3fs after %d faults, scrub p99 %.3f→%.3f ms (%+.1f%%)",
		r.RepairPagesPerSecond, r.TimeToHealthySeconds, r.BurstFaults,
		r.BaselineLatencyMsP99, r.ScrubLatencyMsP99, r.ScrubOverheadP99Pct)
}

// WriteFile writes the report as indented JSON, atomically.
func (r *ChaosReport) WriteFile(path string) error {
	return writeReportJSON(path, r)
}

// chaosBench builds the warehouse store with a parity sidecar, then runs
// the three self-healing measurements: a baseline query stream, the same
// stream under a paced concurrent scrub, and a seeded corruption burst
// timed from injection to a clean verify.
func chaosBench(cfg tpcd.Config, name string, queries, frames int) (*ChaosReport, error) {
	if queries <= 0 {
		return nil, fmt.Errorf("chaosbench: need a positive query count, got %d", queries)
	}
	if cfg.RecordBytes < 8 {
		return nil, fmt.Errorf("chaosbench: RecordBytes = %d cannot hold the 8-byte measure", cfg.RecordBytes)
	}
	ds, err := tpcd.Build(cfg)
	if err != nil {
		return nil, err
	}
	w, err := ds.Workload(tpcd.PaperWorkload7())
	if err != nil {
		return nil, err
	}
	opt, err := core.Optimal(w)
	if err != nil {
		return nil, err
	}
	o, err := linear.FromPath(ds.Schema, opt.Path, true)
	if err != nil {
		return nil, err
	}
	framed := paddedBytes(ds)

	dir, err := os.MkdirTemp("", "snakebench-chaos")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "bench.db")
	fs, err := storage.CreateFileStore(path, o, framed, int(cfg.PageBytes), frames)
	if err != nil {
		return nil, err
	}
	defer fs.Close()

	rep := &ChaosReport{
		Name:                 name,
		Seed:                 cfg.Seed,
		Strategy:             o.Name,
		Cells:                len(ds.BytesPerCell),
		PageBytes:            cfg.PageBytes,
		PoolFrames:           frames,
		ParityGroup:          storage.DefaultParityGroup,
		ScrubRatePagesPerSec: chaosScrubRate,
	}
	shape := ds.Schema.LeafCounts()
	nSupp, nTime := shape[1], shape[2]
	payload := make([]byte, cfg.RecordBytes)
	var loadErr error
	ds.EachRecord(func(li *tpcd.LineItem) bool {
		part, supp, day := li.Cell()
		binary.LittleEndian.PutUint64(payload[:8], math.Float64bits(li.ExtendedPrice))
		if loadErr = fs.PutRecord((part*nSupp+supp)*nTime+day, payload); loadErr != nil {
			return false
		}
		rep.RecordsLoaded++
		return true
	})
	if loadErr != nil {
		return nil, loadErr
	}
	rep.TotalPages = fs.Layout().TotalPages()

	t0 := time.Now()
	if err := fs.WriteParity(storage.ParityPath(path), storage.DefaultParityGroup); err != nil {
		return nil, err
	}
	rep.ParityBuildSeconds = time.Since(t0).Seconds()
	groups := (rep.TotalPages + int64(storage.DefaultParityGroup) - 1) / int64(storage.DefaultParityGroup)
	rep.ParityOverheadPct = 100 * float64(groups) / float64(rep.TotalPages)

	regions, err := sampleRegions(ds, w, o, queries)
	if err != nil {
		return nil, err
	}
	runStream := func() ([]float64, error) {
		lat := make([]float64, 0, len(regions))
		for _, r := range regions {
			q0 := time.Now()
			if err := readRegion(context.Background(), fs, r, func(cell int, record []byte) error {
				return nil
			}); err != nil {
				return nil, err
			}
			lat = append(lat, time.Since(q0).Seconds())
		}
		sort.Float64s(lat)
		return lat, nil
	}

	// Phase 1: baseline tail latency, no scrub running.
	base, err := runStream()
	if err != nil {
		return nil, err
	}

	// Phase 2: the same stream with a paced scrub walking the store
	// concurrently, the way the serving daemon runs it.
	sctx, scancel := context.WithCancel(context.Background())
	scrubDone := make(chan struct{})
	go func() {
		defer close(scrubDone)
		batch := int64(chaosScrubRate) / 10
		if batch < 1 {
			batch = 1
		}
		tick := time.NewTicker(time.Duration(float64(batch) / chaosScrubRate * float64(time.Second)))
		defer tick.Stop()
		cursor := int64(0)
		for {
			select {
			case <-sctx.Done():
				return
			case <-tick.C:
			}
			for i := int64(0); i < batch; i++ {
				_ = fs.CheckPage(cursor)
				cursor = (cursor + 1) % rep.TotalPages
			}
		}
	}()
	scrubbed, err := runStream()
	scancel()
	<-scrubDone
	if err != nil {
		return nil, err
	}

	ms := func(s float64) float64 { return s * 1e3 }
	rep.Queries = len(regions)
	rep.BaselineLatencyMsP50 = ms(percentile(base, 0.50))
	rep.BaselineLatencyMsP99 = ms(percentile(base, 0.99))
	rep.ScrubLatencyMsP50 = ms(percentile(scrubbed, 0.50))
	rep.ScrubLatencyMsP99 = ms(percentile(scrubbed, 0.99))
	if rep.BaselineLatencyMsP99 > 0 {
		rep.ScrubOverheadP99Pct = 100 * (rep.ScrubLatencyMsP99 - rep.BaselineLatencyMsP99) / rep.BaselineLatencyMsP99
	}

	// Phase 3: one seeded repairable burst — a fault in every parity group
	// — timed from injection through the repair sweep to a clean verify.
	sched := chaos.PlanRepairable(int64(cfg.Seed), int(groups), rep.TotalPages, storage.DefaultParityGroup, int(cfg.PageBytes))
	rep.BurstFaults = len(sched.Events)
	t1 := time.Now()
	if err := sched.Apply(path); err != nil {
		return nil, err
	}
	r0 := time.Now()
	sweep, err := fs.RepairCtx(context.Background())
	if err != nil {
		return nil, err
	}
	rep.RepairSeconds = time.Since(r0).Seconds()
	rep.RepairedPages = int64(len(sweep.Repaired))
	if rep.RepairSeconds > 0 {
		// Throughput of the sweep itself: every page is checked, the
		// damaged ones reconstructed.
		rep.RepairPagesPerSecond = float64(sweep.Pages) / rep.RepairSeconds
	}
	if !sweep.OK() {
		return nil, fmt.Errorf("chaosbench: repairable burst did not repair: %d failures", len(sweep.Failed))
	}
	vrep, err := fs.Verify()
	if err != nil {
		return nil, err
	}
	if !vrep.OK() {
		return nil, fmt.Errorf("chaosbench: store not clean after repair: %v", vrep.Err())
	}
	rep.TimeToHealthySeconds = time.Since(t1).Seconds()
	return rep, nil
}
