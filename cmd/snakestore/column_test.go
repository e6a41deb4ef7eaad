package main

import (
	"bytes"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	snakes "repro"
)

// checkParseDecimal holds parseDecimal to strconv.ParseFloat on the field
// that ends at the first comma: the same bits, and the same error text.
func checkParseDecimal(t *testing.T, in []byte) {
	t.Helper()
	field := in
	if end := bytes.IndexByte(in, ','); end >= 0 {
		field = in[:end]
	}
	want, wantErr := strconv.ParseFloat(string(field), 64)
	got, gotErr := parseDecimal(in)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("parseDecimal(%q) err = %v, ParseFloat err = %v", in, gotErr, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("parseDecimal(%q) = %v (%#x), ParseFloat = %v (%#x)", in, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

var decimalSeeds = []string{
	"0", "-0", "+0", "0.0", "-0.00", "1", "-1", "+1.5", "12345.67", "-98765.43", "0.1", "0.3", ".5", "5.", "-.5",
	"007", "000.125", "1.10", "123456789012345", "1234567890123.45", "9007199254740992", "9007199254740993",
	"9999999999999999999", "99999999999999999999", "0.0000000000000000001", "0.00000000000000000001",
	"4.35", "1.005", "2.675", "179769313486231570000", "0.000001", "1e3", "1E-3", "1.5e+2", "inf", "-Inf", "nan", "NaN",
	"0x1p-2", "1_000", "0x_1p0", "", "-", "+", ".", "-.", "1..2", "1.2.3", "12a", "a12", " 1", "1 ", "--1", "+-1",
	"1,2", "3.25,rest,of,row", ",", "-7.5,", "abc,1", "1e400", "-1e400", "1e-400",
}

// TestParseDecimalMatchesParseFloat: the fast path and the fallback together
// accept, reject and round exactly as strconv.ParseFloat does.
func TestParseDecimalMatchesParseFloat(t *testing.T) {
	for _, s := range decimalSeeds {
		checkParseDecimal(t, []byte(s))
	}
	// Every cent amount the text records carry, and their neighbours.
	for cents := -150_000; cents <= 150_000; cents += 7 {
		checkParseDecimal(t, strconv.AppendFloat(nil, float64(cents)/100, 'f', 2, 64))
		checkParseDecimal(t, strconv.AppendFloat(nil, float64(cents)/1000, 'f', -1, 64))
	}
}

func FuzzParseDecimal(f *testing.F) {
	for _, s := range decimalSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) { checkParseDecimal(t, in) })
}

// TestPayloadColumn: column selection, the short-row error, and the
// allocation gate — the fast path allocates nothing.
func TestPayloadColumn(t *testing.T) {
	rec := []byte("1234.56,-7.25,widget,0.5")
	for idx, want := range []float64{1234.56, -7.25} {
		if got, err := payloadColumn(rec, idx); err != nil || got != want {
			t.Errorf("column %d = %v, %v; want %v", idx, got, err, want)
		}
	}
	if got, err := payloadColumn(rec, 3); err != nil || got != 0.5 {
		t.Errorf("last column = %v, %v; want 0.5", got, err)
	}
	if _, err := payloadColumn(rec, 2); err == nil {
		t.Error("non-numeric column parsed")
	}
	if _, err := payloadColumn(rec, 4); err == nil || err.Error() != "record has 4 payload columns, sum asked for 4" {
		t.Errorf("short row err = %v", err)
	}
	var sink float64
	if allocs := testing.AllocsPerRun(1000, func() {
		for idx := 0; idx < 2; idx++ {
			v, _ := payloadColumn(rec, idx)
			sink += v
		}
	}); allocs != 0 {
		t.Errorf("payloadColumn allocates %v times on the fast path, want 0", allocs)
	}
}

// TestQuerySumOneDecoder: the query subcommand and the daemon decode the
// sum column with the same function — a short row is the same error from
// both — and on the default sequential schedule a repeated query reports
// the plan-cache hit its one plan lookup made.
func TestQuerySumOneDecoder(t *testing.T) {
	dir := t.TempDir()
	cat, store, csvPath := filepath.Join(dir, "cat.json"), filepath.Join(dir, "facts.db"), filepath.Join(dir, "facts.csv")
	writeFactsCSV(t, csvPath)
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "64", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", store, "-frames", "8"}); err != nil {
		t.Fatal(err)
	}
	cliErr := cmdQuery([]string{"-catalog", cat, "-store", store, "-where", "x=1..2", "-sum", "1"})
	if cliErr == nil {
		t.Fatal("query -sum past the last column succeeded")
	}

	c, schema, strat, err := loadCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := strat.OpenFileStore(store, c.BytesPer, c.PageBytes, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	adm, err := snakes.NewAdmission(64, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(fs, schema, schemaDims(c), adm, 5*time.Second, c.Generation, snakes.TraceConfig{})
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	var body struct{ Error string }
	getJSON(t, ts, "/query?where=x%3D1..2&sum=1", http.StatusBadRequest, &body)
	if body.Error != cliErr.Error() {
		t.Errorf("daemon says %q, query subcommand says %q", body.Error, cliErr)
	}

	for i := 0; i < 2; i++ {
		getJSON(t, ts, "/query?where=x%3D2..3&sum=0", http.StatusOK, nil)
	}
	var er eventsResp
	getJSON(t, ts, "/debug/events?handler=query&outcome=ok", http.StatusOK, &er)
	if len(er.Events) != 2 || !er.Events[0].PlanCacheHit || er.Events[1].PlanCacheHit {
		t.Errorf("plan cache hits of the two identical queries, newest first: %+v", er.Events)
	}
}
