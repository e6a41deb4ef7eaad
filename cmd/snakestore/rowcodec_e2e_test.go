package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/big"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	snakes "repro"
	"repro/internal/rowcodec"
)

// measureRows is a 4x6 warehouse of rows shaped like the benchmark's: three
// measures and two text columns, one to three rows a cell. The third measure
// cycles through spellings the codec keeps as text (a sign, leading zeros, a
// bare point, an exponent), so sums cross the binary columns and the tail.
func measureRows() map[[2]int][]string {
	odd := []string{"0.05", "+0.5", "007", "5.", "1e-2", ".25"}
	rows := map[[2]int][]string{}
	n := 0
	for x := 0; x < 4; x++ {
		for y := 0; y < 6; y++ {
			for r := 0; r <= (x+y)%3; r++ {
				n++
				rows[[2]int{x, y}] = append(rows[[2]int{x, y}], fmt.Sprintf("%d.%02d,%d,%s,N,row %04d of the warehouse",
					10000+7919*n%90000, 37*n%100, 1+n%50, odd[n%len(odd)], n))
			}
		}
	}
	return rows
}

// regionRows lists the text of the region's rows, cell by cell in the
// store's disk order and row by row in load order.
func regionRows(st *snakes.FileStore, rows map[[2]int][]string, region snakes.Region) []string {
	var texts []string
	order := st.Layout().Order()
	for _, pos := range order.Positions(region) {
		co := order.Coords(order.CellAt(pos), make([]int, 2))
		texts = append(texts, rows[[2]int{co[0], co[1]}]...)
	}
	return texts
}

// plainDecimal is a column that spells a decimal without an exponent.
var plainDecimal = regexp.MustCompile(`^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)$`)

// exactOracle sums column col of the region's rows from their text with
// math/big: a plain decimal is the exact rational it spells, any other
// spelling the float64 strconv.ParseFloat reads, and the total is rounded
// to float64 once — what the store must answer to the bit, whatever order
// its cells arrive in.
func exactOracle(t *testing.T, st *snakes.FileStore, rows map[[2]int][]string, region snakes.Region, col int) (records int64, sum float64) {
	t.Helper()
	var total big.Rat
	for _, row := range regionRows(st, rows, region) {
		records++
		total.Add(&total, exactValue(t, strings.Split(row, ",")[col]))
	}
	sum, _ = total.Float64()
	return records, sum
}

func exactValue(t *testing.T, text string) *big.Rat {
	t.Helper()
	if plainDecimal.MatchString(text) {
		r, ok := new(big.Rat).SetString(text)
		if !ok {
			t.Fatalf("big.Rat cannot read %q", text)
		}
		return r
	}
	v, err := strconv.ParseFloat(text, 64)
	if err != nil {
		t.Fatal(err)
	}
	return new(big.Rat).SetFloat64(v)
}

var querySumLine = regexp.MustCompile(`: (\d+) records, sum\(col \d+\) = (\S+)`)

// cliSum runs the query subcommand and parses the count and the sum it
// prints (%g: the shortest text that reads back to the same float64).
func cliSum(t *testing.T, catPath, storePath string, region snakes.Region, col int) (int64, float64) {
	t.Helper()
	stdout := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	qerr := cmdQuery([]string{"-catalog", catPath, "-store", storePath, "-sum", strconv.Itoa(col),
		"-where", fmt.Sprintf("x=%d..%d", region[0].Lo, region[0].Hi), "-where", fmt.Sprintf("y=%d..%d", region[1].Lo, region[1].Hi)})
	os.Stdout = stdout
	w.Close()
	out, _ := io.ReadAll(r)
	if qerr != nil {
		t.Fatalf("query -sum %d over %v: %v", col, region, qerr)
	}
	m := querySumLine.FindSubmatch(out)
	if m == nil {
		t.Fatalf("query printed %q", out)
	}
	n, _ := strconv.ParseInt(string(m[1]), 10, 64)
	sum, err := strconv.ParseFloat(string(m[2]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return n, sum
}

// TestEncodedRowsEndToEnd drives the row codec through every door of the
// store: build learns a row dictionary and encodes the CSV under it, the
// daemon and the query subcommand answer every region with the exactly
// rounded decimal total of the CSV's column to the bit (exactOracle), every
// stored record decodes back to its CSV text, a same-shape rewrite through
// /ingest (new digits, every skeleton kept) fits its extent and is summed
// exactly from the overlay, from the base file after a compaction tick,
// from the next generation after a reorganization and after a restart, and
// a longer row — or one of the same length whose text the dictionary does
// not know — is refused without a trace.
func TestEncodedRowsEndToEnd(t *testing.T) {
	dir := t.TempDir()
	catPath, storePath, csvPath := filepath.Join(dir, "cat.json"), filepath.Join(dir, "facts.db"), filepath.Join(dir, "facts.csv")
	rows := measureRows()
	var csv strings.Builder
	var textBytes int64
	for x := 0; x < 4; x++ {
		for y := 0; y < 6; y++ {
			for _, row := range rows[[2]int{x, y}] {
				fmt.Fprintf(&csv, "%d,%d,%s\n", x, y, row)
				textBytes += snakes.FrameSize(len(row))
			}
		}
	}
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
	var stored int64
	for _, b := range c.BytesPer {
		stored += b
	}
	if c.Version != catalogVersion || stored >= textBytes {
		t.Fatalf("catalog version %d reserves %d bytes for rows whose framed text is %d", c.Version, stored, textBytes)
	}
	store, err := strat.OpenFileStore(storePath, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	adm, err := snakes.NewAdmission(1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Dict == nil {
		t.Fatal("build wrote no row dictionary")
	}
	srv := newServer(store, schema, c, adm, 0, snakes.TraceConfig{})
	defer func() { srv.closeStore() }()
	if err := srv.enableReorg(catPath, storePath, 8, 64, c, strat, adaptiveConfig()); err != nil {
		t.Fatal(err)
	}
	if err := srv.enableIngest(catPath, storePath, srv.cat, testDeltaOptions(), testIngestConfig()); err != nil {
		t.Fatal(err)
	}
	defer func() { srv.closeIngest() }()
	ts := httptest.NewServer(srv.handler())
	defer func() { ts.Close() }()

	regions := []snakes.Region{
		{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}, {{Lo: 1, Hi: 2}, {Lo: 0, Hi: 6}}, {{Lo: 0, Hi: 4}, {Lo: 3, Hi: 4}},
		{{Lo: 2, Hi: 4}, {Lo: 2, Hi: 6}}, {{Lo: 1, Hi: 2}, {Lo: 3, Hi: 4}}, {{Lo: 0, Hi: 2}, {Lo: 0, Hi: 3}},
	}
	// agree holds the daemon to the oracle on every region and column, and
	// every row of every stored or pending record — a framed row or a packed
	// block — to its text.
	agree := func(when string) {
		t.Helper()
		st := srv.st()
		for _, region := range regions {
			texts := regionRows(st, rows, region)
			i := 0
			if err := readRegion(context.Background(), st, region, func(_ int, rec []byte) error {
				text, err := rowcodec.Decode(srv.dict, nil, rec)
				for _, row := range strings.Split(string(text), "\n") {
					if err != nil || i >= len(texts) || row != texts[i] {
						return fmt.Errorf("row %d decodes to %q, %v; the CSV has %q", i, row, err, texts[min(i, len(texts)-1)])
					}
					i++
				}
				return nil
			}); err != nil || i != len(texts) {
				t.Fatalf("%s, region %v: %d of %d rows read back: %v", when, region, i, len(texts), err)
			}
			for col := 0; col < 3; col++ {
				wantN, want := exactOracle(t, st, rows, region, col)
				v := url.Values{"sum": {strconv.Itoa(col)}, "where": {
					fmt.Sprintf("x=%d..%d", region[0].Lo, region[0].Hi), fmt.Sprintf("y=%d..%d", region[1].Lo, region[1].Hi)}}
				var q queryResponse
				getJSON(t, ts, "/query?"+v.Encode(), http.StatusOK, &q)
				if q.Records != wantN || q.Sum == nil || math.Float64bits(*q.Sum) != math.Float64bits(want) {
					t.Fatalf("%s, region %v column %d: %d records sum %v, exact oracle %d records sum %v",
						when, region, col, q.Records, fmtSum(q.Sum), wantN, want)
				}
			}
		}
	}
	agree("as built")

	// Past the last column the row is short, in the text decoder's words.
	var body struct{ Error string }
	getJSON(t, ts, "/query?sum=5", http.StatusBadRequest, &body)
	if want := "usage error: record has 5 payload columns, sum asked for 5"; body.Error != want {
		t.Errorf("sum past the last column: %q, want %q", body.Error, want)
	}

	// A same-shape rewrite: every column keeps its length, the digits move.
	cell := [2]int{1, 3}
	fresh := make([]string, len(rows[cell]))
	for i, row := range rows[cell] {
		fresh[i] = string(sameShape([]byte(row)))
	}
	if fresh[0] == rows[cell][0] {
		t.Fatal("the rewrite changed nothing")
	}
	if resp := ingestOne(t, ts, cell[:], fresh...); resp.Accepted != 1 || resp.PendingCells != 1 {
		t.Fatalf("same-shape rewrite: %+v", resp)
	}
	rows[cell] = fresh
	agree("with the rewrite pending")

	// One more byte of text in one row no longer fits the extent: 400, and
	// nothing about the store or the log changes.
	longer := append([]string(nil), fresh...)
	longer[0] += "!"
	postJSON(t, ts, "/ingest", ingestRequest{Cells: []ingestCellReq{{Coords: cell[:], Rows: longer}}}, http.StatusBadRequest, &body)
	if !strings.Contains(body.Error, "exceed cell capacity") || srv.ing.log.PendingCells() != 1 {
		t.Fatalf("longer row: %q with %d cells pending", body.Error, srv.ing.log.PendingCells())
	}
	agree("after the refused row")

	// A row of the same length whose flag the dictionary has never seen is
	// kept as text, which no longer fits the extent its coded form sized.
	unknown := append([]string(nil), fresh...)
	unknown[0] = strings.Replace(unknown[0], ",N,", ",Q,", 1)
	postJSON(t, ts, "/ingest", ingestRequest{Cells: []ingestCellReq{{Coords: cell[:], Rows: unknown}}}, http.StatusBadRequest, &body)
	if len(unknown[0]) != len(fresh[0]) || !strings.Contains(body.Error, "exceed cell capacity") || srv.ing.log.PendingCells() != 1 {
		t.Fatalf("out-of-vocabulary row: %q with %d cells pending", body.Error, srv.ing.log.PendingCells())
	}
	agree("after the refused out-of-vocabulary row")

	if tick := tickIngest(t, srv); tick.CellsApplied != 1 || tick.Oversize != 0 || tick.PendingCells != 0 {
		t.Fatalf("compaction tick: %+v", tick)
	}
	agree("after the compaction tick")

	// A second rewrite rides a reorganization into the next generation.
	cell = [2]int{2, 4}
	fresh = make([]string, len(rows[cell]))
	for i, row := range rows[cell] {
		fresh[i] = string(sameShape([]byte(row)))
	}
	ingestOne(t, ts, cell[:], fresh...)
	rows[cell] = fresh
	for i := 0; i < 50; i++ {
		getJSON(t, ts, "/query?where=y%3D3..4", http.StatusOK, nil)
	}
	if st := forceReorg(t, srv, ts); st.LastOutcome != "success" || st.Generation != 1 {
		t.Fatalf("forced reorganization: %+v", st)
	}
	agree("after the cutover")

	// A restart: the daemon comes back from the catalog the cutover wrote,
	// which carries build's dictionary, and a same-shape rewrite still fits.
	srv.closeIngest()
	if err := srv.closeStore(); err != nil {
		t.Fatal(err)
	}
	ts.Close()
	cr, schemaR, stratR, err := loadServableCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mustJSON(t, cr.Dict), mustJSON(t, c.Dict); got != want {
		t.Fatalf("the cutover's catalog carries the dictionary %s, build wrote %s", got, want)
	}
	restarted, err := stratR.OpenFileStore(activeStorePath(cr, storePath), cr.BytesPer, cr.PageBytes, 8, cr.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	srv = newServer(restarted, schemaR, cr, adm, 0, snakes.TraceConfig{})
	if err := srv.enableIngest(catPath, storePath, cr, testDeltaOptions(), testIngestConfig()); err != nil {
		t.Fatal(err)
	}
	ts = httptest.NewServer(srv.handler())
	agree("after a restart")
	cell = [2]int{0, 5}
	fresh = make([]string, len(rows[cell]))
	for i, row := range rows[cell] {
		fresh[i] = string(sameShape([]byte(row)))
	}
	if resp := ingestOne(t, ts, cell[:], fresh...); resp.Accepted != 1 {
		t.Fatalf("same-shape rewrite after the restart: %+v", resp)
	}
	rows[cell] = fresh
	agree("with a rewrite pending after the restart")
	if tick := tickIngest(t, srv); tick.CellsApplied != 1 || tick.Oversize != 0 {
		t.Fatalf("compaction tick after the restart: %+v", tick)
	}
	agree("compacted after the restart")

	// The query subcommand reads the same bits cold from the new generation.
	srv.closeIngest()
	if err := srv.closeStore(); err != nil {
		t.Fatal(err)
	}
	c2, _, strat2, err := loadCatalog(catPath)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := strat2.OpenFileStore(activeStorePath(c2, storePath), c2.BytesPer, c2.PageBytes, 8, c2.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	for _, region := range regions {
		for col := 0; col < 3; col++ {
			wantN, want := exactOracle(t, cold, rows, region, col)
			if n, sum := cliSum(t, catPath, storePath, region, col); n != wantN || math.Float64bits(sum) != math.Float64bits(want) {
				t.Errorf("query -sum %d over %v: %d records sum %v, exact oracle %d records sum %v", col, region, n, sum, wantN, want)
			}
		}
	}
}

// TestRebuildDropsPendingDeltas: a rebuild starts the store over from the
// CSV, so the writes a stopped daemon left pending in the delta log go with
// the store they were made against. Replayed into the rebuilt store they
// would undo the CSV, and they are coded against the old build's
// dictionary: a CSV whose text comes in another order teaches the rebuild
// other codes, under which those rows decode to other text.
func TestRebuildDropsPendingDeltas(t *testing.T) {
	dir := t.TempDir()
	catPath, storePath, csvPath := filepath.Join(dir, "cat.json"), filepath.Join(dir, "facts.db"), filepath.Join(dir, "facts.csv")
	rows := measureRows()
	build := func(reversed bool) *catalog {
		t.Helper()
		var csv strings.Builder
		for i := 0; i < 24; i++ {
			x, y := i/6, i%6
			if reversed {
				x, y = 3-x, 5-y
			}
			for _, row := range rows[[2]int{x, y}] {
				fmt.Fprintf(&csv, "%d,%d,%s\n", x, y, row)
			}
		}
		if err := os.WriteFile(csvPath, []byte(csv.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := cmdBuild([]string{"-catalog", catPath, "-csv", csvPath, "-store", storePath, "-frames", "8"}); err != nil {
			t.Fatal(err)
		}
		c, _, _, err := loadServableCatalog(catPath)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	adm, err := snakes.NewAdmission(1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	serve := func() (*server, *httptest.Server) {
		t.Helper()
		c, schema, strat, err := loadServableCatalog(catPath)
		if err != nil {
			t.Fatal(err)
		}
		store, err := strat.OpenFileStore(activeStorePath(c, storePath), c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
		if err != nil {
			t.Fatal(err)
		}
		srv := newServer(store, schema, c, adm, 0, snakes.TraceConfig{})
		if err := srv.enableIngest(catPath, storePath, c, testDeltaOptions(), testIngestConfig()); err != nil {
			srv.closeStore()
			t.Fatal(err)
		}
		return srv, httptest.NewServer(srv.handler())
	}

	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-workload", "0,2:1", "-page", "256", "-catalog", catPath}); err != nil {
		t.Fatal(err)
	}
	first := build(false)
	srv, ts := serve()
	for cell, old := range rows {
		fresh := make([]string, len(old))
		for i, row := range old {
			fresh[i] = string(sameShape([]byte(row)))
		}
		ingestOne(t, ts, cell[:], fresh...)
	}
	pending := srv.ing.log.PendingCells()
	ts.Close()
	if err := srv.closeStore(); err != nil {
		t.Fatal(err)
	}
	if pending != len(rows) {
		t.Fatalf("%d cells pending when the daemon stopped, want %d", pending, len(rows))
	}

	second := build(true)
	if mustJSON(t, second.Dict) == mustJSON(t, first.Dict) {
		t.Fatalf("both builds learned the dictionary %s: the test needs other codes", mustJSON(t, first.Dict))
	}
	if _, err := os.Stat(snakes.DeltaPath(storePath)); !os.IsNotExist(err) {
		t.Fatalf("the rebuild kept the delta log: %v", err)
	}
	srv, ts = serve()
	defer func() {
		ts.Close()
		srv.closeStore()
	}()
	whole := snakes.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}
	for col := 0; col < 3; col++ {
		wantN, want := exactOracle(t, srv.st(), rows, whole, col)
		var q queryResponse
		getJSON(t, ts, "/query?sum="+strconv.Itoa(col), http.StatusOK, &q)
		if q.Records != wantN || q.Sum == nil || math.Float64bits(*q.Sum) != math.Float64bits(want) {
			t.Fatalf("column %d after the rebuild: %d records sum %v, the CSV's %d records sum %v", col, q.Records, fmtSum(q.Sum), wantN, want)
		}
	}
}

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
