package snakes_test

import (
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runGo runs `go run <pkg> <args...>` in the module root and returns its
// combined output.
func runGo(t *testing.T, pkg string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", pkg}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s %v failed: %v\n%s", pkg, args, err, out)
	}
	return string(out)
}

// costLine matches what the examples that execute queries against a file
// store print per query: the layout's prediction beside the cold read.
var costLine = regexp.MustCompile(`predicted (\d+) pages (\d+) seeks, observed (\d+) pages (\d+) seeks`)

// TestExamplesRun executes every example binary end to end and checks a
// marker line from each, so examples cannot silently rot; where an example
// prints predicted and observed query costs, they must agree.
func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cases := []struct {
		pkg       string
		marker    string
		costLines int // queries the example executes and prices
	}{
		{"./examples/quickstart", "optimal strategy: snaked", 0},
		{"./examples/retail", "the optimum", 0},
		{"./examples/telecom", "optimized the unbalanced-region schema successfully", 0},
		{"./examples/tpcd", "executed in", 1},
		{"./examples/adaptive", "after reorg: the same scans cost", 0},
		{"./examples/olap", "persisted strategy", 8},
	}
	for _, c := range cases {
		c := c
		t.Run(filepath.Base(c.pkg), func(t *testing.T) {
			t.Parallel()
			out := runGo(t, c.pkg)
			if !strings.Contains(out, c.marker) {
				t.Errorf("%s output missing %q:\n%s", c.pkg, c.marker, out)
			}
			costs := costLine.FindAllStringSubmatch(out, -1)
			if len(costs) != c.costLines {
				t.Errorf("%s prints %d predicted/observed lines, want %d:\n%s", c.pkg, len(costs), c.costLines, out)
			}
			for _, m := range costs {
				if m[1] != m[3] || m[2] != m[4] {
					t.Errorf("%s: %s", c.pkg, m[0])
				}
			}
		})
	}
}

// TestToolsRun smoke-tests the command-line tools on tiny inputs.
func TestToolsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	t.Run("snakebench", func(t *testing.T) {
		t.Parallel()
		out := runGo(t, "./cmd/snakebench", "-tables", "1,2", "-figures=false")
		for _, want := range []string{"Table 1", "16/16", "Table 2"} {
			if !strings.Contains(out, want) {
				t.Errorf("snakebench output missing %q", want)
			}
		}
	})
	t.Run("snakebench-validate", func(t *testing.T) {
		t.Parallel()
		out := runGo(t, "./cmd/snakebench", "-validate", "-tables", "", "-figures=false")
		if !strings.Contains(out, "worst analytic-vs-measured deviation: 0") {
			t.Errorf("validation output:\n%s", out)
		}
	})
	t.Run("latticeopt", func(t *testing.T) {
		t.Parallel()
		out := runGo(t, "./cmd/latticeopt",
			"-dims", "a:4,2 b:3", "-workload", "0,1:0.7 2,0:0.3")
		if !strings.Contains(out, "optimal lattice path") || !strings.Contains(out, "snaked") {
			t.Errorf("latticeopt output:\n%s", out)
		}
	})
	t.Run("tpcdgen", func(t *testing.T) {
		t.Parallel()
		out := runGo(t, "./cmd/tpcdgen",
			"-parts", "2", "-days", "2", "-years", "1", "-records", "2")
		for _, want := range []string{"schema:", "Q9", "first 2 records"} {
			if !strings.Contains(out, want) {
				t.Errorf("tpcdgen output missing %q", want)
			}
		}
	})
}
