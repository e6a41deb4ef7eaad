package main

import (
	"bytes"
	"encoding/json"
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
	"repro/internal/storage"
	"repro/internal/trace"
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
	adm, err := storage.NewAdmission(1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv = newServer(store, schema, c, adm, 0, trace.Config{})
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

// TestSumKernelZeroAlloc: the cell kernel /query and the query subcommand
// share walks a warm cell of binary and text columns without allocating: a
// framed cell of a store without a template, and a frameless packed cell and
// a marker-framed cell under a template.
func TestSumKernelZeroAlloc(t *testing.T) {
	var recs [][]byte
	for _, row := range []string{"12345.67,17,0.05,N,comment", "-0.25,3,0.10,O,x", "+1.75,007,.5,A,raw"} {
		recs = append(recs, rowcodec.Encode(nil, nil, row))
	}
	framed := rowcodec.FrameRecords(recs...)
	d, packed, marked := frameless(t, []string{"12345.67,17,N,x 042", "-0.25,3,O,x 007", "99999.99,50,N,x 999"})
	for _, c := range []struct {
		name string
		d    *rowcodec.Dict
		cell []byte
		cols int
	}{{"framed", nil, framed, 3}, {"packed", d, packed, 2}, {"marker-framed", d, marked, 2}} {
		for col := 0; col < c.cols; col++ {
			k := &sumKernel{col: col, d: c.d, sum: rowcodec.NewSum(c.d, col)}
			if allocs := testing.AllocsPerRun(1000, func() {
				if err := k.cell(3, c.cell); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s cell, column %d: the kernel allocates %v times per cell, want 0", c.name, col, allocs)
			}
			if k.records != 3*1001 {
				t.Errorf("%s cell, column %d: %d records counted, want %d", c.name, col, k.records, 3*1001)
			}
		}
	}
	// Broken framing is the codec's error, naming the cell.
	k := &sumKernel{col: -1}
	if err := k.cell(3, framed[:len(framed)-1]); !errors.Is(err, rowcodec.ErrFraming) || err.Error() != "cell 3: broken record framing: truncated record" {
		t.Errorf("truncated cell: %v", err)
	}
}

// frameless learns a Dict and template from rows, which must all fit it,
// and returns the rows as a frameless packed cell and as a framed cell
// behind the marker.
func frameless(t *testing.T, rows []string) (d *rowcodec.Dict, packed, marked []byte) {
	t.Helper()
	d = rowcodec.NewDict()
	shapes := make([]int, len(rows))
	for i, row := range rows {
		_, _, shapes[i] = d.Learn([]byte(row))
	}
	d.Template()
	for i, row := range rows {
		if !d.Fits(shapes[i]) {
			t.Fatalf("%q does not fit", row)
		}
		var ok bool
		if packed, ok = rowcodec.Pack(d, packed, row); !ok {
			t.Fatalf("%q does not pack", row)
		}
	}
	if !d.Frameless() || int64(len(packed)) != d.PackedLen(len(rows)) {
		t.Fatalf("a template without the marker bit, or a packed cell of %d bytes for %d rows of %d", len(packed), len(rows), d.Width())
	}
	marked = d.AppendMarker(nil)
	for _, row := range rows {
		marked = rowcodec.AppendFramedRow(d, marked, row)
	}
	return d, packed, marked
}

// TestSumKernelCountsPackedRows: the kernel counts rows, not stored
// records — a frameless packed cell is fill / W of them, with no frame or
// tag, a marker-framed cell one a record, and under a version 6 template a
// tagged block is Rows of them beside framed rows — sums them as it counts
// without allocating, and takes a packed cell whose length is not a whole
// number of rows, or a first byte that is neither a row's nor the marker,
// for the damage it is.
func TestSumKernelCountsPackedRows(t *testing.T) {
	rows := []string{"12345.67,17,N,x 042", "-0.25,3,O,x 007", "99999.99,50,N,x 999", "0.10,1,O,x 000"}
	d, packed, marked := frameless(t, rows)
	if len(packed) != 4*d.Width() {
		t.Fatalf("a packed cell of 4 rows is %d bytes, want 4 × %d", len(packed), d.Width())
	}
	// The same Dict under its template without the marker bit, as a
	// version 6 catalog keeps it: a packed cell is a tagged framed record.
	tj, _ := json.Marshal(d.Template())
	tj = bytes.Replace(tj, []byte(`,"marker":true`), nil, 1)
	var v6t rowcodec.Template
	dj, _ := json.Marshal(d)
	v6 := new(rowcodec.Dict)
	if err := json.Unmarshal(dj, v6); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(tj, &v6t); err != nil || v6.SetTemplate(&v6t) != nil || v6.Frameless() {
		t.Fatalf("a version 6 template: %s, %v", tj, err)
	}
	block := rowcodec.EncodeCell(v6, rows)
	v6cell := append(append([]byte(nil), block...), rowcodec.AppendFramedRow(v6, nil, "1.5,2,N,x 1234")...)
	v6cell = append(v6cell, block...)
	sum := 12345.67 - 0.25 + 99999.99 + 0.10
	for _, c := range []struct {
		name  string
		d     *rowcodec.Dict
		cell  []byte
		rows  int
		wants []float64
	}{
		{"packed", d, packed, 4, []float64{sum, 17 + 3 + 50 + 1}},
		{"marker-framed", d, marked, 4, []float64{sum, 17 + 3 + 50 + 1}},
		{"version 6", v6, v6cell, 9, []float64{2*sum + 1.5, 2*(17+3+50+1) + 2}},
	} {
		for col, want := range c.wants {
			k := &sumKernel{col: col, d: c.d, sum: rowcodec.NewSum(c.d, col)}
			if allocs := testing.AllocsPerRun(100, func() {
				if err := k.cell(3, c.cell); err != nil {
					t.Fatal(err)
				}
			}); allocs != 0 {
				t.Errorf("%s cell, column %d: the kernel allocates %v times per cell, want 0", c.name, col, allocs)
			}
			if k.records != int64(c.rows)*101 {
				t.Errorf("%s cell, column %d: %d rows counted, want %d", c.name, col, k.records, c.rows*101)
			}
			k = &sumKernel{col: col, d: c.d, sum: rowcodec.NewSum(c.d, col)}
			if err := k.cell(3, c.cell); err != nil {
				t.Fatal(err)
			}
			if got, err := k.sum.Total(); err != nil || math.Abs(got-want) > 1e-6 {
				t.Errorf("%s cell, column %d: sum %v, %v; want %v", c.name, col, got, err, want)
			}
		}
	}
	for _, col := range []int{-1, 0} {
		k := &sumKernel{col: col, d: d, sum: rowcodec.NewSum(d, col)}
		if err := k.cell(3, packed[:len(packed)-1]); err == nil || err.Error() != "usage error: "+rowcodec.ErrMalformed.Error() {
			t.Errorf("column %d, a packed cell one byte short: %v, want the malformed-row error", col, err)
		}
		if err := k.cell(3, append([]byte{0x03}, packed...)); !errors.Is(err, rowcodec.ErrFraming) {
			t.Errorf("column %d, a cell behind an unknown marker: %v, want a framing error", col, err)
		}
	}
}
