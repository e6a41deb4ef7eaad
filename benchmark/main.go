// Command benchmark is the repository's measuring stick: it builds
// ./cmd/snakestore, generates the reduced TPC-D warehouse, drives the real
// binary (optimize → build → serve) over HTTP with five workloads, checks
// every answer against an oracle computed from the generated rows, and
// prints every end-to-end and per-layer metric by name with its unit.
//
//	go run . -seed 1999 -out <dir>          all five workloads, traced
//	go run . -compare a.json b.json         verdict per workload × metric
//	go run . -selfcheck                     the suite twice, compared to itself
//	bash benchmark/run.sh --workload w7-warm --seed 7 --seconds 12 --trace 0
//
// The last form is the driver contract of BENCHMARK.json: one workload,
// one JSON object on the last line of standard output. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

const (
	warmUp       = 3 * time.Second
	setupsPerRun = 5

	// shippedDefaults are the serve flags every workload leaves alone; the
	// stamp records them so a later change of a default shows up as a
	// change of the benchmark's conditions.
	shippedDefaults = "-scrub-rate 128 -trace-sample 16 -max-inflight 1024 -queue-timeout 100ms -ingest-sync batch -ingest-batch-kb 256 -compact-interval 1s -compact-tick-kb 1024"
	flushPolicy     = "-ingest-sync batch: a post is acknowledged once its WAL record is written; fsync every 256 KiB of log. The durability check kills the process, not the power."
)

// stamp records where and how a report was taken.
type stamp struct {
	Commit          string `json:"commit"`
	GoVersion       string `json:"goVersion"`
	CPU             string `json:"cpu"`
	NProc           int    `json:"nproc"`     // processors of the box
	PinnedCPU       int    `json:"pinnedCpu"` // the one the run was confined to
	GOMAXPROCS      int    `json:"gomaxprocs"`
	ShippedDefaults string `json:"shippedDefaults"`
	FlushPolicy     string `json:"flushPolicy"`
}

// report is the machine-readable output of one suite run.
type report struct {
	Env         stamp     `json:"env"`
	Seed        int64     `json:"seed"`
	WarmSeconds float64   `json:"warmSeconds"`
	RunSeconds  float64   `json:"runSeconds"`
	Workloads   []*result `json:"workloads"`
}

func takeStamp(root string, pinnedCPU int) stamp {
	st := stamp{
		Commit: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		PinnedCPU: pinnedCPU, GOMAXPROCS: runtime.GOMAXPROCS(0),
		ShippedDefaults: shippedDefaults, FlushPolicy: flushPolicy,
	}
	git := exec.Command("git", "rev-parse", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		st.Commit = strings.TrimSpace(string(out))
	}
	if out, err := exec.Command("go", "version").Output(); err == nil {
		st.GoVersion = strings.TrimSpace(string(out))
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			// runtime.NumCPU counts the affinity mask, which is down to one.
			switch k, v, _ := strings.Cut(line, ":"); strings.TrimSpace(k) {
			case "processor":
				st.NProc++
			case "model name":
				st.CPU = strings.TrimSpace(v)
			}
		}
	}
	return st
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	workload := flag.String("workload", "", "run only this workload (default: all five)")
	seed := flag.Int64("seed", 1999, "seed of the query lists and the ingested values")
	seconds := flag.Int("seconds", 20, "measured window per workload, after a 3 s warm-up")
	traceMode := flag.Int("trace", -1, "driver contract: 0 prints the end-to-end metrics as one JSON line, 1 the per-layer metrics; default runs traced and prints the table")
	out := flag.String("out", "", "directory for benchmark.json and trace-<workload>.json (default "+buildDir+"/out in the checkout)")
	compare := flag.Bool("compare", false, "compare two benchmark.json files given as arguments; exit 1 on a regression")
	selfcheck := flag.Bool("selfcheck", false, "run the suite twice and compare the second run to the first")
	listMetrics := flag.Bool("metrics", false, "print the metric registry and exit")
	flag.Parse()

	switch {
	case *listMetrics:
		printRegistry()
		return 0
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare wants two files: baseline.json candidate.json")
			return 2
		}
		return compareFiles(flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds < 1 || *traceMode < -1 || *traceMode > 1 {
		flag.Usage()
		return 2
	}
	chosen := workloads
	if *workload != "" {
		wl, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return 2
		}
		chosen = []workloadDef{wl}
	}
	cpu, err := pinToOneCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	rc := runConfig{seed: *seed, warm: warmUp, window: time.Duration(*seconds) * time.Second, setups: setupsPerRun, trace: *traceMode != 0, cpu: cpu}

	sb, err := newSandbox()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// The daemon is reaped and the work directory removed however the run
	// ends: normally, on an error, or on a signal.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP, syscall.SIGPIPE) // SIGPIPE: the reader of our output went away
	go func() {
		<-sig
		sb.close()
		os.Exit(130)
	}()
	defer sb.close()

	if *out == "" && *traceMode < 0 {
		*out = filepath.Join(sb.root, buildDir, "out")
	}
	suite := func() (*report, error) { return runSuite(sb, chosen, rc) }
	rep, err := suite()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	printReport(rep)
	code := 0
	if *selfcheck {
		second, err := suite()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		printReport(second)
		if err := writeOutputs(*out, "benchmark-first.json", rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		code = compareReports(rep, second)
		rep = second
	}
	if *out != "" {
		if err := writeOutputs(*out, "benchmark.json", rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		fmt.Printf("\nwrote %s\n", filepath.Join(*out, "benchmark.json"))
	}
	for _, r := range rep.Workloads {
		if r.Failed > 0 {
			code = 1
		}
	}
	if *traceMode >= 0 {
		fmt.Println(contractLine(rep.Workloads[0], *traceMode == 1))
	}
	return code
}

// runSuite generates the warehouse once and runs the chosen workloads on
// it, each on its own freshly built store and daemon.
func runSuite(sb *sandbox, chosen []workloadDef, rc runConfig) (*report, error) {
	f, err := newFixture(referenceFixture())
	if err != nil {
		return nil, err
	}
	csv := filepath.Join(sb.dir, "warehouse.csv")
	if err := f.writeCSV(csv); err != nil {
		return nil, err
	}
	rep := &report{Env: takeStamp(sb.root, rc.cpu), Seed: rc.seed, WarmSeconds: rc.warm.Seconds(), RunSeconds: rc.window.Seconds()}
	for _, wl := range chosen {
		r, err := runWorkload(sb, f, csv, wl, rc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.Name, err)
		}
		rep.Workloads = append(rep.Workloads, r)
	}
	return rep, nil
}

// writeOutputs writes the report and, per workload, the client spans kept
// in memory during the run.
func writeOutputs(dir, name string, rep *report) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
		return err
	}
	for _, r := range rep.Workloads {
		if len(r.spans) == 0 {
			continue
		}
		data, err := json.Marshal(r.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, "trace-"+r.Workload+".json"), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// printReport prints every metric by name with its unit, one workload after
// another. A metric that does not exist on a workload is left out.
func printReport(rep *report) {
	e := rep.Env
	fmt.Printf("commit %s  %s  %s  nproc %d, pinned to cpu %d  GOMAXPROCS %d  seed %d  window %gs after %gs warm-up\n",
		e.Commit, e.GoVersion, e.CPU, e.NProc, e.PinnedCPU, e.GOMAXPROCS, rep.Seed, rep.RunSeconds, rep.WarmSeconds)
	fmt.Printf("flush policy: %s\n", e.FlushPolicy)
	for _, r := range rep.Workloads {
		fmt.Printf("\n== %s  serve %s  (%d operations, %d failed)\n", r.Workload, strings.Join(r.Flags, " "), r.Attempted, r.Failed)
		for _, msg := range r.Failures {
			fmt.Printf("   FAILED: %s\n", msg)
		}
		for _, m := range metrics {
			v, ok := r.Metrics[m.Name]
			if !ok {
				continue
			}
			bound := ""
			if m.Bound > 0 {
				bound = fmt.Sprintf("   bound %g%%", m.Bound*100)
			}
			fmt.Printf("   %-36s %14.6g %-6s%s\n", m.Name, v, m.Unit, bound)
		}
	}
}

func printRegistry() {
	fmt.Printf("%-36s %-6s %-7s %-6s %s\n", "metric", "unit", "better", "bound", "moves")
	for _, m := range metrics {
		bound := "-"
		if m.Bound > 0 {
			bound = fmt.Sprintf("%g%%", m.Bound*100)
		}
		moves := m.Moves
		if m.EndToEnd {
			moves = "end to end"
		}
		if m.IngestOnly {
			moves += " [mixed-rw only]"
		}
		fmt.Printf("%-36s %-6s %-7s %-6s %s\n", m.Name, m.Unit, m.Better, bound, moves)
	}
}

// contractLine renders one workload's run as the JSON object the driver
// reads from the last line of standard output: the BENCHMARK.json
// end-to-end metrics, or with perLayer every other metric. The contract
// wants every listed metric on every workload, so one that does not exist
// on this workload is sent as 0 (the table above leaves it out instead).
func contractLine(r *result, perLayer bool) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		if m.Contract != perLayer {
			line.Metrics[m.Name] = value{Value: r.Metrics[m.Name], Unit: m.Unit}
		}
	}
	data, _ := json.Marshal(line)
	return string(data)
}
