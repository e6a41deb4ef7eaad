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
	"repro/internal/rowcodec"
)

// These tests hold internal/rowcodec to its contract through the functions
// the daemon calls. The codec's text-side decoders are reached the same
// way: a row under header 0 is stored raw, and rowcodec.Column reads a raw
// row's columns by the text decoder's rules.
func rawRow(text []byte) []byte { return append([]byte{0}, text...) }

// parseDecimal is the codec's decimal parser on the field that starts b.
func parseDecimal(b []byte) (float64, error) { return rowcodec.Column(rawRow(b), 0) }

// payloadColumn is the idx-th column of a row held as text.
func payloadColumn(row []byte, idx int) (float64, error) { return rowcodec.Column(rawRow(row), idx) }

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
	raw := rawRow(rec)
	if allocs := testing.AllocsPerRun(1000, func() {
		for idx := 0; idx < 2; idx++ {
			v, _ := rowcodec.Column(raw, idx)
			sink += v
		}
	}); allocs != 0 {
		t.Errorf("payloadColumn allocates %v times on the fast path, want 0", allocs)
	}
}

// checkRowCodec holds one row to the codec's contract: the encoding is
// lossless and at most a byte longer than the text, EncodedLen agrees with
// it, a string encodes as its bytes do, and every column — one past the
// last included — reads from the encoded row exactly as payloadColumn reads
// it from the text: the same bits, the same error text.
func checkRowCodec(t *testing.T, row []byte) []byte {
	t.Helper()
	enc := rowcodec.Encode(nil, row)
	if got := rowcodec.Encode([]byte("x"), string(row)); !bytes.Equal(got[1:], enc) {
		t.Fatalf("rowcodec.Encode(%q) as a string = %x, as bytes %x", row, got[1:], enc)
	}
	if len(enc) > len(row)+1 || rowcodec.EncodedLen(row) != len(enc) || rowcodec.EncodedLen(string(row)) != len(enc) {
		t.Fatalf("rowcodec.Encode(%q) is %d bytes, rowcodec.EncodedLen says %d, the text is %d", row, len(enc), rowcodec.EncodedLen(row), len(row))
	}
	dec, err := rowcodec.Decode(nil, enc)
	if err != nil || !bytes.Equal(dec, row) {
		t.Fatalf("rowcodec.Decode(rowcodec.Encode(%q)) = %q, %v", row, dec, err)
	}
	for idx := 0; idx <= bytes.Count(row, []byte(","))+1; idx++ {
		want, wantErr := payloadColumn(row, idx)
		got, gotErr := rowcodec.Column(enc, idx)
		if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("row %q column %d: rowcodec.Column err = %v, payloadColumn err = %v", row, idx, gotErr, wantErr)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("row %q column %d: rowcodec.Column = %v (%#x), payloadColumn = %v (%#x)", row, idx, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	return enc
}

// sameShape rewrites a row the way a same-shape upsert does: every column
// keeps its length and its spelling class, only the digits change.
func sameShape(row []byte) []byte {
	out := bytes.Clone(row)
	for i, c := range out {
		if c >= '1' && c <= '9' {
			out[i] = '1' + '9' - c
		}
	}
	return out
}

// checkShapeSized: two rows whose columns have pairwise equal lengths and
// the same canonical run (their headers agree) encode to the same length.
func checkShapeSized(t *testing.T, row []byte) {
	t.Helper()
	a, b := checkRowCodec(t, row), checkRowCodec(t, sameShape(row))
	if a[0] == b[0] && len(a) != len(b) {
		t.Fatalf("rows %q and %q have one shape and encode to %d and %d bytes", row, sameShape(row), len(a), len(b))
	}
}

var rowSeeds = []string{
	"12345.67,17,0.05,0.02,N,O,TRUCK,lineitem 000000042 v0000 carefully final deposits",
	"", ",", ",,", "a", "a,b", "7", "7,", "7,8", "7,8,", "7,,8", ",7", "1,2,3", "10,20,30", "13.0", "99.0", "val00,7.5",
	"-0", "-0.0", "0", "0.0", "0.50", "0.05", "-12.5,x", "007", "00.5", "5.", ".5", "-.5", "+1", "1e3", "inf", "nan", "-", "-,", "1.2.3", "1 ,2",
	"9007199254740992", "9007199254740993", "-9007199254740992,1", "12345678901234567890", "1234567890123456789",
	"0.000000000000001", "0.0000000000000001", "0.0000000000000000001", "123.4567890123456789",
	"1,2,3,4,5,6,7,8,9,10,11,12,13,14,15", "1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16", "11,22,33,44,55,66,77,88,99,10,11,12,13,14,15,16,17,tail",
	"100,200,", "100,200", "100,200,text", "100,200,text,", "100,\x00\xff,3", "1999999999999999,5",
}

// TestRowCodec runs the codec's contract over the seed rows and over every
// cent amount of the benchmark's row shape.
func TestRowCodec(t *testing.T) {
	for _, s := range rowSeeds {
		checkShapeSized(t, []byte(s))
	}
	row := []byte("12345.67,17,0.05,0.02,N,O,TRUCK,comment")
	want := len(checkRowCodec(t, row))
	if saved := len(row) - want; saved != 8 {
		t.Errorf("the four measures of %q encode %d bytes shorter than their text, want 8", row, saved)
	}
	for cents := 1_000_000; cents < 10_000_000; cents += 9973 {
		row := append(strconv.AppendFloat(nil, float64(cents)/100, 'f', 2, 64), ",17,0.05,0.02,N,O,TRUCK,comment"...)
		if got := len(checkRowCodec(t, row)); got != want {
			t.Fatalf("%q encodes to %d bytes, a row of its shape to %d", row, got, want)
		}
	}
}

// TestRowCodecRejectsMalformed: bytes no encoder wrote are an error from
// both decoders, never a panic.
func TestRowCodecRejectsMalformed(t *testing.T) {
	for _, rec := range [][]byte{nil, {0x10}, {0x20}, {0x01}, {0x01, 0x04, 1, 2}, {0x02, 0x01, 5}, {0x01, 0x01, 5, 'x'}} {
		if dec, err := rowcodec.Decode(nil, rec); err == nil {
			t.Errorf("rowcodec.Decode(%x) = %q, want an error", rec, dec)
		}
	}
	for _, rec := range [][]byte{nil, {0x01}, {0x01, 0x04, 1, 2}, {0x02, 0x01, 5}} {
		if v, err := rowcodec.Column(rec, 1); err == nil {
			t.Errorf("rowcodec.Column(%x, 1) = %v, want an error", rec, v)
		}
	}
}

// TestRowCodecAllocs is the codec's allocation gate: reading a column,
// sizing a row and encoding into a warm buffer allocate nothing.
func TestRowCodecAllocs(t *testing.T) {
	row := []byte(rowSeeds[0])
	enc := rowcodec.Encode(nil, row)
	buf := make([]byte, 0, len(row)+1)
	var sink float64
	var size int
	if allocs := testing.AllocsPerRun(1000, func() {
		for idx := 0; idx < 4; idx++ {
			v, _ := rowcodec.Column(enc, idx)
			sink += v
		}
		size += rowcodec.EncodedLen(row) + rowcodec.EncodedLen(rowSeeds[0])
		buf = rowcodec.Encode(buf[:0], row)
		buf = rowcodec.Encode(buf[:0], rowSeeds[0])
	}); allocs != 0 {
		t.Errorf("the row codec allocates %v times per row, want 0", allocs)
	}
}

func FuzzRowCodec(f *testing.F) {
	for _, s := range rowSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkShapeSized(t, in)
		// The same bytes read as an encoded row: an answer or an error.
		rowcodec.Decode(nil, in)
		for idx := 0; idx < 18; idx++ {
			rowcodec.Column(in, idx)
		}
	})
}

// TestQuerySumOneDecoder: the query subcommand and the daemon sum with the
// same kernel — a short row is the same error from both, and both answer
// the exactly rounded decimal total on every schedule — and on the default
// sequential schedule a repeated query reports the plan-cache hit its one
// plan lookup made.
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

	// writeFactsCSV's amounts are x*10+y with one decimal: the region's
	// exact total is a whole number of tenths.
	region := snakes.Region{{Lo: 1, Hi: 3}, {Lo: 1, Hi: 6}}
	tenths := 0
	for x := 1; x < 3; x++ {
		for y := 1; y < 6; y++ {
			tenths += 10 * (x*10 + y)
		}
	}
	want := float64(tenths) / 10
	if _, sum := cliSum(t, cat, store, region, 0); math.Float64bits(sum) != math.Float64bits(want) {
		t.Errorf("query -sum 0 over %v: %v, exact total %v", region, sum, want)
	}
	var q queryResponse
	getJSON(t, ts, regionQuery(region, 0), http.StatusOK, &q)
	if q.Sum == nil || math.Float64bits(*q.Sum) != math.Float64bits(want) {
		t.Errorf("daemon sum %v, exact total %v", fmtSum(q.Sum), want)
	}
}
