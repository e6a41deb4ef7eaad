package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	snakes "repro"
	"repro/internal/rowcodec"
)

// serveRows builds a 4×6 store (dimensions x and y) from rows and serves
// it; it returns the catalog and store paths for the query subcommand.
func serveRows(t *testing.T, rows map[[2]int][]string) (srv *server, ts *httptest.Server, catPath, storePath string) {
	t.Helper()
	dir := t.TempDir()
	catPath, storePath = filepath.Join(dir, "cat.json"), filepath.Join(dir, "facts.db")
	var csv strings.Builder
	for x := 0; x < 4; x++ {
		for y := 0; y < 6; y++ {
			for _, row := range rows[[2]int{x, y}] {
				fmt.Fprintf(&csv, "%d,%d,%s\n", x, y, row)
			}
		}
	}
	csvPath := filepath.Join(dir, "facts.csv")
	if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-workload", "0,2:1", "-page", "256", "-catalog", catPath}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", catPath, "-csv", csvPath, "-store", storePath, "-frames", "8"}); err != nil {
		t.Fatal(err)
	}
	c, schema, strat, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	store, err := strat.OpenFileStore(storePath, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	adm, err := snakes.NewAdmission(1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv = newServer(store, schema, schemaDims(c), adm, 0, c.Generation, snakes.TraceConfig{})
	t.Cleanup(func() { srv.closeStore() })
	ts = httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts, catPath, storePath
}

// fmtSum prints a /query sum, absent or not.
func fmtSum(sum *float64) string {
	if sum == nil {
		return "absent"
	}
	return strconv.FormatFloat(*sum, 'g', -1, 64)
}

func regionQuery(region snakes.Region, col int) string {
	return "/query?" + url.Values{"sum": {strconv.Itoa(col)}, "where": {
		fmt.Sprintf("x=%d..%d", region[0].Lo, region[0].Hi), fmt.Sprintf("y=%d..%d", region[1].Lo, region[1].Hi)}}.Encode()
}

// TestSumEqualsCentsOracle: on rows shaped like the benchmark's, whose
// first column is a price in cents written as a decimal, every region's sum
// from the daemon on both read schedules and from the query subcommand is
// float64(cents)/100 to the bit — the benchmark's own oracle — although a
// left-to-right float sum of the same text misses it on some regions.
func TestSumEqualsCentsOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rows := map[[2]int][]string{}
	cents := map[[2]int]int64{}
	for x := 0; x < 4; x++ {
		for y := 0; y < 6; y++ {
			for r := rng.Intn(5); r > 0; r-- {
				c := rng.Int63n(10_000_000)
				cents[[2]int{x, y}] += c
				rows[[2]int{x, y}] = append(rows[[2]int{x, y}], fmt.Sprintf("%d.%02d,%d,0.%02d,0.0%d,N,O,TRUCK,lineitem %09d v0000 carefully final",
					c/100, c%100, 1+rng.Intn(50), rng.Intn(11), rng.Intn(9), rng.Intn(1e9)))
			}
		}
	}
	srv, ts, catPath, storePath := serveRows(t, rows)
	missed := 0
	for x0 := 0; x0 < 4; x0++ {
		for x1 := x0 + 1; x1 <= 4; x1++ {
			for y0 := 0; y0 < 6; y0++ {
				for y1 := y0 + 1; y1 <= 6; y1++ {
					region := snakes.Region{{Lo: x0, Hi: x1}, {Lo: y0, Hi: y1}}
					var total int64
					for x := x0; x < x1; x++ {
						for y := y0; y < y1; y++ {
							total += cents[[2]int{x, y}]
						}
					}
					want := float64(total) / 100
					naive := 0.0
					for _, row := range regionRows(srv.st(), rows, region) {
						v, _ := strconv.ParseFloat(row[:strings.IndexByte(row, ',')], 64)
						naive += v
					}
					if naive != want {
						missed++
					}
					var q queryResponse
					getJSON(t, ts, regionQuery(region, 0), http.StatusOK, &q)
					if q.Sum == nil || math.Float64bits(*q.Sum) != math.Float64bits(want) {
						t.Fatalf("region %v: sum %v, cents oracle %v", region, fmtSum(q.Sum), want)
					}
					if x1-x0 == 2 && y1-y0 == 3 {
						if _, sum := cliSum(t, catPath, storePath, region, 0); math.Float64bits(sum) != math.Float64bits(want) {
							t.Errorf("query -sum 0 over %v: %v, cents oracle %v", region, sum, want)
						}
					}
				}
			}
		}
	}
	if missed == 0 {
		t.Error("a left-to-right float sum hit the cents oracle on every region: the fixture cannot tell exact sums from rounded ones")
	}
}

// TestNonFiniteSumIsUsageError: a sum that is not a finite number — a
// column spelled inf or nan, or two 1e308s — answers 400 naming the column,
// and the query subcommand exits 2 with the same text. (JSON has no such
// number: the daemon used to answer 200 with an empty body.)
func TestNonFiniteSumIsUsageError(t *testing.T) {
	rows := map[[2]int][]string{{0, 0}: {"inf,nan,1e308,1.5", "1,2,1e308,2.5"}}
	for x := 0; x < 4; x++ {
		for y := 1; y < 6; y++ {
			rows[[2]int{x, y}] = []string{"1.25,2,3,4"}
		}
	}
	_, ts, catPath, storePath := serveRows(t, rows)
	for col, want := range []string{"+Inf", "NaN", "+Inf"} {
		text := fmt.Sprintf("usage error: sum of column %d is %s, not a finite number", col, want)
		var body struct{ Error string }
		getJSON(t, ts, fmt.Sprintf("/query?sum=%d", col), http.StatusBadRequest, &body)
		if body.Error != text {
			t.Errorf("sum=%d: %q, want %q", col, body.Error, text)
		}
		err := cmdQuery([]string{"-catalog", catPath, "-store", storePath, "-sum", strconv.Itoa(col)})
		if err == nil || !errors.Is(err, errUsage) || err.Error() != text {
			t.Errorf("query -sum %d: %v, want the usage error %q", col, err, text)
		}
		var q queryResponse
		getJSON(t, ts, fmt.Sprintf("/query?sum=%d&where=y%%3D1..6", col), http.StatusOK, &q)
		if q.Sum == nil || q.Records != 20 {
			t.Errorf("sum=%d without the cell: %+v", col, q)
		}
	}
	var q queryResponse
	getJSON(t, ts, "/query?sum=3", http.StatusOK, &q)
	if q.Sum == nil || *q.Sum != 84 {
		t.Errorf("sum=3: %+v, want 84", q)
	}
}

// TestSumKernelZeroAlloc: the record kernel /query and the query
// subcommand share walks a warm cell of binary and text columns without
// allocating.
func TestSumKernelZeroAlloc(t *testing.T) {
	var recs [][]byte
	for _, row := range []string{"12345.67,17,0.05,N,comment", "-0.25,3,0.10,O,x", "+1.75,007,.5,A,raw"} {
		recs = append(recs, rowcodec.Encode(nil, row))
	}
	framed := snakes.FrameRecords(recs...)
	for col := 0; col < 3; col++ {
		k := &sumKernel{col: col, sum: rowcodec.NewSum(col)}
		if allocs := testing.AllocsPerRun(1000, func() {
			if err := k.cell(3, framed); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("column %d: the kernel allocates %v times per cell, want 0", col, allocs)
		}
		if k.records != 3*1001 {
			t.Errorf("column %d: %d records counted, want %d", col, k.records, 3*1001)
		}
	}
	// Broken framing is the store's error, in the store's words.
	k := &sumKernel{col: -1}
	if err := k.cell(3, framed[:len(framed)-1]); err == nil || err.Error() != "storage: truncated record in cell 3" {
		t.Errorf("truncated cell: %v", err)
	}
}
