// Command snakebench regenerates every table and figure of the paper's
// evaluation and prints them in the paper's layout.
//
// Usage:
//
//	snakebench [-full] [-samples n] [-tables 1,2,3,4,5,6] [-figures]
//	    [-all27] [-validate] [-robustness] [-seed n]
//
// By default the TPC-D tables run on a reduced warehouse that finishes in
// seconds; -full uses the paper's dimensions (5×40 parts, 10 suppliers,
// 7 years of days), which takes a few minutes. `make paper` regenerates
// the archived full_results.txt and full_table4_all27.txt this way.
//
// Input that would silently print nothing or nonsense is a usage error:
// positional arguments, a non-positive -samples, and a -tables id outside
// 1–6.
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

// benchOpts bundles every knob of a run; one seed feeds every generated
// dataset so the whole run is reproducible from the flag.
type benchOpts struct {
	full       bool
	samples    int
	tables     string
	figures    bool
	all27      bool
	validate   bool
	robustness bool
	seed       uint64
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
	if err := fs.Parse(args); err != nil {
		return 2
	}
	want, code := validateFlags(fs, o, stderr)
	if code != 0 {
		return code
	}
	if err := bench(stdout, o, want); err != nil {
		fmt.Fprintln(stderr, "snakebench:", err)
		return 1
	}
	return 0
}

// validateFlags rejects input that would otherwise run and print nothing
// or nonsense: positional arguments (every input is a flag), a
// non-positive -samples (a Table 4 of zeros), and a -tables id outside 1–6
// (silently skipped). It returns the requested tables, or exit code 2 (a
// usage error) on rejection. An empty -tables requests no table.
func validateFlags(fs *flag.FlagSet, o benchOpts, stderr io.Writer) (map[string]bool, int) {
	usage := func(format string, args ...any) (map[string]bool, int) {
		fmt.Fprintf(stderr, "snakebench: "+format+"\n", args...)
		fs.Usage()
		return nil, 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected arguments: %v", fs.Args())
	}
	if o.samples <= 0 {
		return usage("-samples %d: want a positive number of queries per class", o.samples)
	}
	want := map[string]bool{}
	for _, t := range strings.Split(o.tables, ",") {
		switch t = strings.TrimSpace(t); t {
		case "":
		case "1", "2", "3", "4", "5", "6":
			want[t] = true
		default:
			return usage("-tables: no table %q, the paper has Tables 1-6", t)
		}
	}
	return want, 0
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

// warehouseConfig is the TPC-D warehouse for Tables 4-6: the paper's
// dimensions when full, a reduced grid otherwise, always generated from the
// caller's seed.
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

func bench(out io.Writer, o benchOpts, want map[string]bool) error {
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

	return nil
}
