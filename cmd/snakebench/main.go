// Command snakebench regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout.
//
// Usage:
//
//	snakebench [-full] [-samples n] [-tables 1,2,3,4,5,6] [-figures]
//	    [-seed n] [-json BENCH_name.json]
//
// By default the TPC-D tables run on a reduced warehouse that finishes in
// seconds; -full uses the paper's dimensions (5×40 parts, 10 suppliers,
// 7 years of days), which takes a few minutes.
//
// -json additionally runs an end-to-end store benchmark — build the
// warehouse, load it into a paged file clustered by the snaked optimal
// path, and execute a workload-sampled query stream — and writes a
// machine-readable report (queries/sec, latency percentiles, pool stats,
// predicted vs observed pages and seeks) to the given path, so successive
// runs can be compared as a trajectory. `make bench` writes
// BENCH_<name>.json this way.
//
// -obs-json runs the observability benchmark: exact per-class cost-model
// calibration on a cold store, drift detection under a full delta
// overlay, recovery through paced compaction, and deterministic SLO
// burn-rate transitions on an injected clock.
//
// Flag combinations that would silently ignore input are usage errors:
// positional arguments and benchmark knobs (-bench-queries, -bench-frames,
// -name) without a benchmark mode flag.
//
// Exit status: 0 on success, 1 on computation errors, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/experiments"
	"repro/internal/tpcd"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchOpts bundles every knob of a bench run; one seed feeds every
// generated dataset so the whole run is reproducible from the flag.
type benchOpts struct {
	full       bool
	samples    int
	tables     string
	figures    bool
	all27      bool
	validate   bool
	robustness bool
	seed       uint64
	name       string
	jsonPath   string
	adaptPath  string
	chaosPath  string
	ingestPath string
	obsPath    string
	queries    int
	frames     int
	framesSet  bool
}

// run is the testable entry point: it parses args, writes reports to
// stdout, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("snakebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o benchOpts
	fs.BoolVar(&o.full, "full", false, "use the paper's full warehouse dimensions for Tables 4-6")
	fs.IntVar(&o.samples, "samples", 48, "queries sampled per class when measuring the warehouse")
	fs.StringVar(&o.tables, "tables", "1,2,3,4,5,6", "comma-separated tables to run")
	fs.BoolVar(&o.figures, "figures", true, "render Figures 1/2/3/5")
	fs.BoolVar(&o.all27, "all27", false, "run Table 4 over all 27 Section-6.2 workloads")
	fs.BoolVar(&o.validate, "validate", false, "cross-check the analytic cost model against the storage simulator")
	fs.BoolVar(&o.robustness, "robustness", false, "measure sensitivity of the optimized path to workload estimation error")
	fs.Uint64Var(&o.seed, "seed", tpcd.DefaultConfig().Seed, "seed for every generated dataset and sampled query stream")
	fs.StringVar(&o.name, "name", "local", "benchmark name recorded in the -json report")
	fs.StringVar(&o.jsonPath, "json", "", "run the store benchmark and write its JSON report to this path")
	fs.StringVar(&o.adaptPath, "adaptive-json", "", "run the adaptive reorganization benchmark and write its JSON report to this path")
	fs.StringVar(&o.chaosPath, "chaos-json", "", "run the self-healing benchmark (repair throughput, scrub overhead, time-to-healthy) and write its JSON report to this path")
	fs.StringVar(&o.ingestPath, "ingest-json", "", "run the write-path benchmark (delta-store ingest under mixed load, compaction convergence, incremental re-clustering) and write its JSON report to this path")
	fs.StringVar(&o.obsPath, "obs-json", "", "run the observability benchmark (exact cold calibration, overlay drift detection, compaction recovery, deterministic SLO burn rates) and write its JSON report to this path")
	fs.IntVar(&o.queries, "bench-queries", 256, "queries executed by the benchmark modes")
	fs.IntVar(&o.frames, "bench-frames", 256, "buffer pool frames for the benchmark modes")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if code := validateFlags(fs, stderr); code != 0 {
		return code
	}
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "bench-frames" {
			o.framesSet = true
		}
	})
	if err := bench(stdout, o); err != nil {
		fmt.Fprintln(stderr, "snakebench:", err)
		return 1
	}
	return 0
}

// validateFlags rejects flag combinations that would otherwise run and
// silently ignore half their input: positional arguments (every input is a
// flag) and benchmark knobs without any benchmark mode. Returns 2 (usage
// error) on rejection.
func validateFlags(fs *flag.FlagSet, stderr io.Writer) int {
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "snakebench: unexpected arguments: %v\n", fs.Args())
		fs.Usage()
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	anyMode := set["json"] || set["adaptive-json"] || set["chaos-json"] || set["ingest-json"] || set["obs-json"]
	for _, name := range []string{"bench-queries", "bench-frames", "name"} {
		if set[name] && !anyMode {
			fmt.Fprintf(stderr, "snakebench: -%s has no effect without a benchmark mode (-json, -adaptive-json, -chaos-json, -ingest-json or -obs-json)\n", name)
			fs.Usage()
			return 2
		}
	}
	return 0
}

// validateConfig is the tiny uniform grid the model validation runs on.
// The structure is fixed; the seed is the caller's, not a hardcoded one.
func validateConfig(seed uint64) tpcd.Config {
	return tpcd.Config{
		Manufacturers: 2, PartsPerMfr: 3, Suppliers: 2,
		Years: 2, MonthsPerYear: 2, DaysPerMonth: 2,
		RecordBytes: 1, PageBytes: 1, MeanRecordsPerCell: 1, Seed: seed,
	}
}

// warehouseConfig is the TPC-D warehouse for Tables 4-6 and the store
// benchmark: the paper's dimensions when full, a reduced grid otherwise,
// always generated from the caller's seed.
func warehouseConfig(full bool, seed uint64) tpcd.Config {
	cfg := tpcd.DefaultConfig()
	cfg.Seed = seed
	if !full {
		cfg.PartsPerMfr = 8
		cfg.DaysPerMonth = 6
		cfg.Years = 4
	}
	return cfg
}

func bench(out io.Writer, o benchOpts) error {
	want := map[string]bool{}
	for _, t := range strings.Split(o.tables, ",") {
		want[strings.TrimSpace(t)] = true
	}

	if o.figures {
		fmt.Fprintln(out, "== Figure 3: query class lattice of the example schema ==")
		fmt.Fprintln(out, experiments.Figure3())
		figs, err := experiments.FigureGrids()
		if err != nil {
			return err
		}
		for _, f := range figs {
			fmt.Fprintln(out, experiments.FormatGrid(f))
		}
	}

	if o.validate {
		s, err := validateConfig(o.seed).Schema()
		if err != nil {
			return err
		}
		rows, err := experiments.ValidateModel(s)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== Model validation (uniform grid, one cell per page) ==")
		fmt.Fprint(out, experiments.FormatValidation(rows))
		fmt.Fprintln(out)
	}

	if o.robustness {
		cfg := tpcd.DefaultConfig()
		cfg.Seed = o.seed
		ds, err := tpcd.Build(cfg)
		if err != nil {
			return err
		}
		w, err := ds.Workload(tpcd.PaperWorkload7())
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== Robustness of the optimized path to workload error (TPC-D lattice) ==")
		for _, eps := range []float64{0.05, 0.1, 0.25, 0.5} {
			rep, err := experiments.Robustness(w, eps, 200, 11)
			if err != nil {
				return err
			}
			fmt.Fprint(out, experiments.FormatRobustness(rep))
		}
		fmt.Fprintln(out)
	}

	if want["1"] {
		rows, err := experiments.Table1()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== Table 1: average query class cost ==")
		fmt.Fprintln(out, experiments.FormatTable1(rows))
	}
	if want["2"] {
		rows, err := experiments.Table2()
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== Table 2: expected workload cost ==")
		fmt.Fprintln(out, experiments.FormatTable2(rows))
	}
	if want["3"] {
		rows, err := experiments.Table3(experiments.Table3Fanouts)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, "== Table 3: best/worst cost ratio for varying fanouts ==")
		fmt.Fprintln(out, experiments.FormatTable3(rows, experiments.Table3Fanouts))
	}

	if want["4"] || want["5"] || want["6"] {
		cfg := warehouseConfig(o.full, o.seed)

		if want["4"] {
			ds, err := tpcd.Build(cfg)
			if err != nil {
				return err
			}
			sum := ds.Summarize()
			fmt.Fprintf(out, "== TPC-D warehouse: %d cells, %d records (%d empty cells, %.1f MB) ==\n",
				sum.Cells, sum.Records, sum.EmptyCells, float64(sum.TotalBytes)/1e6)
			m := experiments.NewMeasurer(ds)
			m.SamplesPerClass = o.samples

			// The paper reports workloads 1, 5, 7, 13 and 25 of its 27; we show
			// the same positions of our enumeration plus the featured
			// parts↑/supplier↓/time↑ mix (see EXPERIMENTS.md on numbering).
			// -all27 runs the complete sweep the paper describes.
			all := tpcd.Mixes()
			var sel []tpcd.Mix
			if o.all27 {
				sel = all
			} else {
				sel = []tpcd.Mix{all[0], all[4], all[6], all[12], all[24]}
				featured := tpcd.PaperWorkload7()
				have := false
				for _, mx := range sel {
					if mx == featured {
						have = true
					}
				}
				if !have {
					sel = append(sel, featured)
				}
			}
			rows, err := experiments.Table4(m, sel)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, "== Table 4: normalized blocks read (seeks per query) ==")
			fmt.Fprintln(out, experiments.FormatTable4(rows))
		}

		if want["5"] || want["6"] {
			fanouts := []int{4, 10, 40}
			if !o.full {
				fanouts = []int{4, 10, 20}
			}
			rows, err := experiments.Table5(cfg, fanouts, o.samples)
			if err != nil {
				return err
			}
			if want["5"] {
				fmt.Fprintln(out, "== Table 5: normalized blocks read for the featured workload ==")
				fmt.Fprintln(out, experiments.FormatTable5(rows))
			}
			if want["6"] {
				fmt.Fprintln(out, "== Table 6: normalized blocks read relative to the snaked optimal path ==")
				fmt.Fprintln(out, experiments.FormatTable6(rows))
			}
		}
	}

	if o.jsonPath != "" {
		rep, err := storeBench(warehouseConfig(o.full, o.seed), o.name, o.queries, o.frames)
		if err != nil {
			return err
		}
		rep.Full = o.full
		if err := rep.WriteFile(o.jsonPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "== Store bench %q: %s ==\n", o.name, rep.Summary())
		fmt.Fprintf(out, "report written to %s\n", o.jsonPath)
	}

	if o.adaptPath != "" {
		rep, err := adaptiveBench(warehouseConfig(o.full, o.seed), o.name, o.queries, o.frames)
		if err != nil {
			return err
		}
		rep.Full = o.full
		if err := rep.WriteFile(o.adaptPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "== Adaptive bench %q: %s ==\n", o.name, rep.Summary())
		fmt.Fprintf(out, "report written to %s\n", o.adaptPath)
	}

	if o.chaosPath != "" {
		rep, err := chaosBench(warehouseConfig(o.full, o.seed), o.name, o.queries, o.frames)
		if err != nil {
			return err
		}
		rep.Full = o.full
		if err := rep.WriteFile(o.chaosPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "== Chaos bench %q: %s ==\n", o.name, rep.Summary())
		fmt.Fprintf(out, "report written to %s\n", o.chaosPath)
	}

	if o.ingestPath != "" {
		iop := defaultIngestOpts()
		iop.queries = o.queries
		if o.framesSet {
			iop.frames = o.frames
		}
		rep, err := ingestBench(warehouseConfig(o.full, o.seed), o.name, iop)
		if err != nil {
			return err
		}
		rep.Full = o.full
		if err := rep.WriteFile(o.ingestPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "== Ingest bench %q: %s ==\n", o.name, rep.Summary())
		fmt.Fprintf(out, "report written to %s\n", o.ingestPath)
	}

	if o.obsPath != "" {
		oop := defaultObsOpts()
		oop.queries = o.queries
		if o.framesSet {
			oop.frames = o.frames
		}
		rep, err := obsBench(warehouseConfig(o.full, o.seed), o.name, oop)
		if err != nil {
			return err
		}
		rep.Full = o.full
		if err := rep.WriteFile(o.obsPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "== Obs bench %q: %s ==\n", o.name, rep.Summary())
		fmt.Fprintf(out, "report written to %s\n", o.obsPath)
	}

	return nil
}
