package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"repro/internal/tpcd"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the registry")

// benchmarkJSON is the root BENCHMARK.json: the driver's contract.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadJSON `json:"workloads"`
	EndToEnd   []endToEndJSON `json:"end_to_end"`
	PerLayer   []perLayerJSON `json:"per_layer"`
}

type workloadJSON struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type endToEndJSON struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type perLayerJSON struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// fromRegistry renders the registry as BENCHMARK.json. The driver's window
// is 15 s: its 114 runs, each with 7 s of set-up, warm-up and count pass
// around the window, share 3,420 s with two builds.
func fromRegistry() benchmarkJSON {
	b := benchmarkJSON{Command: []string{"bash", "benchmark/run.sh"}, Paths: []string{"benchmark"}, RunSeconds: 15}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadJSON{w.Name, w.Why})
	}
	for _, m := range metrics {
		if m.Contract {
			b.EndToEnd = append(b.EndToEnd, endToEndJSON{m.Name, m.Unit, m.Better, m.Bound})
		} else {
			b.PerLayer = append(b.PerLayer, perLayerJSON{m.Name, m.Unit, m.Better})
		}
	}
	return b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestRegistryMatchesBenchmarkJSON keeps BENCHMARK.json and the code's
// registry from drifting apart — the file must be exactly what the registry
// renders (go test -run Registry -update rewrites it) — and holds the
// registry to the contract's limits.
func TestRegistryMatchesBenchmarkJSON(t *testing.T) {
	want, err := json.MarshalIndent(fromRegistry(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the registry; run go test -run Registry -update")
	}

	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q: name or why outside the contract's limits", w.Name)
		}
		if w.Readers+min(w.IngestRate, 1) > 2 {
			t.Errorf("workload %s: more than 2 request goroutines", w.Name)
		}
	}
	seen := map[string]bool{}
	for _, m := range metrics {
		if seen[m.Name] {
			t.Errorf("metric %s registered twice", m.Name)
		}
		seen[m.Name] = true
		if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %q unit %q: outside the contract's syntax", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		if m.Contract && (m.Bound <= 0 || m.Bound > boundTimed || boundTimed > 0.25) {
			t.Errorf("metric %s: bound %g outside (0, setup_s's %g <= 0.25]", m.Name, m.Bound, boundTimed)
		}
	}
}

// TestSmoke runs all five workloads for one second each on a tiny
// warehouse through the real binary, traced, and checks the shape of what
// comes out: every metric that exists on the workload is emitted once with
// its registered unit, none that does not, the oracle and the durability
// epilogue pass, and the count pass reconciles exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives the real snakestore binary")
	}
	sb, err := newSandbox()
	if err != nil {
		t.Fatal(err)
	}
	defer sb.close()

	wh := tpcd.DefaultConfig()
	wh.Manufacturers, wh.PartsPerMfr, wh.Suppliers = 2, 3, 2
	wh.Years, wh.MonthsPerYear, wh.DaysPerMonth = 2, 2, 2
	wh.MeanRecordsPerCell = 3
	f, err := newFixture(fixtureConfig{Warehouse: wh, ListLen: 64, CountN: 32, ReplayN: 32, MicroN: 1000})
	if err != nil {
		t.Fatal(err)
	}
	csv := filepath.Join(sb.dir, "warehouse.csv")
	if err := f.writeCSV(csv); err != nil {
		t.Fatal(err)
	}
	b := fromRegistry()
	rc := runConfig{seed: 1, warm: 200 * time.Millisecond, window: time.Second, setups: 1, trace: true}
	for _, wl := range workloads {
		r, err := runWorkload(sb, f, csv, wl, rc)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		if r.Failed != 0 || r.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed: %v", wl.Name, r.Failed, r.Attempted, r.Failures)
		}
		registered := map[string]bool{}
		for _, m := range metrics {
			registered[m.Name] = true
			_, emitted := r.Metrics[m.Name]
			if emitted != m.applies(wl) {
				t.Errorf("%s: metric %s emitted=%v, exists on this workload=%v", wl.Name, m.Name, emitted, m.applies(wl))
			}
		}
		for name := range r.Metrics {
			if !registered[name] {
				t.Errorf("%s: emitted unregistered metric %s", wl.Name, name)
			}
		}
		for _, name := range []string{"storage.model_page_ratio", "storage.model_seek_ratio"} {
			if r.Metrics[name] != 1 {
				t.Errorf("%s: %s = %v, want exactly 1", wl.Name, name, r.Metrics[name])
			}
		}
		if len(r.spans) == 0 {
			t.Errorf("%s: traced run kept no client spans", wl.Name)
		}

		// The driver's view: each listed metric once, with its unit.
		for perLayer, want := range map[bool]int{false: len(b.EndToEnd), true: len(b.PerLayer)} {
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(contractLine(r, perLayer)), &line); err != nil {
				t.Fatal(err)
			}
			if !line.Correct || len(line.Metrics) != want {
				t.Errorf("%s: contract line correct=%v with %d metrics, want %d", wl.Name, line.Correct, len(line.Metrics), want)
			}
			for name, v := range line.Metrics {
				if v.Value == nil || v.Unit == "" {
					t.Errorf("%s: contract metric %s has no value or unit", wl.Name, name)
				}
			}
			if !perLayer {
				for _, m := range b.EndToEnd {
					if v := line.Metrics[m.Name]; v.Value == nil || *v.Value == 0 {
						t.Errorf("%s: end-to-end metric %s is zero or missing", wl.Name, m.Name)
					}
				}
			}
		}
	}
}

// TestJudge pins the comparison rule: inside the bound is unchanged, beyond
// it a regression or a gain, and unresolved when the runs' own noise
// exceeds the bound.
func TestJudge(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower"}
	higher := metricDef{Name: "query_throughput_qps", Better: "higher"}
	for _, tc := range []struct {
		m                  metricDef
		bound, a, b, noise float64
		want               string
	}{
		{lower, 0.10, 1.0, 1.05, 0.01, unchanged},
		{lower, 0.10, 1.0, 1.20, 0.01, regressed},
		{lower, 0.10, 1.0, 0.80, 0.01, improved},
		{lower, 0.10, 1.0, 1.20, 0.30, unresolved},
		{higher, 0.10, 100, 80, 0.01, regressed},
		{higher, 0.10, 100, 120, 0.01, improved},
		{lower, 0, 60.25, 60.25, 0, unchanged},
		{lower, 0, 60.25, 60.5, 0, regressed},
		{lower, 0, 0, 0.01, 0, regressed},
	} {
		if got, _ := judge(tc.m, tc.bound, tc.a, tc.b, tc.noise); got != tc.want {
			t.Errorf("judge(%s, bound %g, %g → %g, noise %g) = %s, want %s", tc.m.Name, tc.bound, tc.a, tc.b, tc.noise, got, tc.want)
		}
	}
}
