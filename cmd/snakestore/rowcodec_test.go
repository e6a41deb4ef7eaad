package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	snakes "repro"
	"repro/internal/rowcodec"
	"repro/internal/storage"
	"repro/internal/trace"
)

// These tests hold internal/rowcodec to its contract through the functions
// the daemon calls. The codec's text-side decoders are reached the same
// way: a row under header 0 is stored raw, and rowcodec.Column reads a raw
// row's columns by the text decoder's rules.
func rawRow(text []byte) []byte { return append([]byte{0}, text...) }

// parseDecimal is the codec's decimal parser on the field that starts b.
func parseDecimal(b []byte) (float64, error) { return rowcodec.Column(nil, rawRow(b), 0, 0) }

// payloadColumn is the idx-th column of a row held as text.
func payloadColumn(row []byte, idx int) (float64, error) {
	return rowcodec.Column(nil, rawRow(row), 0, idx)
}

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
			v, _ := rowcodec.Column(nil, raw, 0, idx)
			sink += v
		}
	}); allocs != 0 {
		t.Errorf("payloadColumn allocates %v times on the fast path, want 0", allocs)
	}
}

// checkRowCodec holds one row to the codec's contract under dictionary d
// (nil: none): the encoding is lossless and at most a byte longer than the
// text, EncodedLen agrees with it, a string encodes as its bytes do, and
// every column — one past the last included — reads from the encoded row
// exactly as payloadColumn reads it from the text, and sums (Sum) exactly
// as it does from the row encoded without a dictionary: the same bits, the
// same error text.
func checkRowCodec(t *testing.T, d *rowcodec.Dict, row []byte) []byte {
	t.Helper()
	enc := rowcodec.Encode(d, nil, row)
	if got := rowcodec.Encode(d, []byte("x"), string(row)); !bytes.Equal(got[1:], enc) {
		t.Fatalf("rowcodec.Encode(%q) as a string = %x, as bytes %x", row, got[1:], enc)
	}
	if len(enc) > len(row)+1 || rowcodec.EncodedLen(d, row) != len(enc) || rowcodec.EncodedLen(d, string(row)) != len(enc) {
		t.Fatalf("rowcodec.Encode(%q) is %d bytes, rowcodec.EncodedLen says %d, the text is %d", row, len(enc), rowcodec.EncodedLen(d, row), len(row))
	}
	dec, err := rowcodec.Decode(d, nil, enc)
	if err != nil || !bytes.Equal(dec, row) {
		t.Fatalf("rowcodec.Decode(rowcodec.Encode(%q)) = %q, %v", row, dec, err)
	}
	plain := rowcodec.Encode(nil, nil, row)
	for idx := 0; idx <= bytes.Count(row, []byte(","))+1; idx++ {
		want, wantErr := payloadColumn(row, idx)
		got, gotErr := rowcodec.Column(d, enc, 0, idx)
		sameReading(t, fmt.Sprintf("row %q column %d", row, idx), got, gotErr, want, wantErr)
		ws, gs := rowcodec.NewSum(nil, idx), rowcodec.NewSum(d, idx)
		_, wantErr = ws.Add(plain)
		_, gotErr = gs.Add(enc)
		if wantErr == nil && gotErr == nil {
			_, wantErr = ws.Add(plain)
			_, gotErr = gs.Add(enc)
		}
		want, _ = ws.Total()
		got, _ = gs.Total()
		sameReading(t, fmt.Sprintf("row %q twice, sum of column %d", row, idx), got, gotErr, want, wantErr)
	}
	return enc
}

// sameReading fails unless two readings of one column agree: the same bits,
// or the same error text.
func sameReading(t *testing.T, what string, got float64, gotErr error, want float64, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: err = %v, want %v", what, gotErr, wantErr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s = %v (%#x), want %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
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

// checkShapeSized: two rows whose columns have pairwise equal lengths, the
// same canonical run (their headers agree) and, under a dictionary, the
// same skeletons (sameShape keeps every digit run's length) encode to the
// same length.
func checkShapeSized(t *testing.T, d *rowcodec.Dict, row []byte) {
	t.Helper()
	a, b := checkRowCodec(t, d, row), checkRowCodec(t, d, sameShape(row))
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
		checkShapeSized(t, nil, []byte(s))
	}
	row := []byte("12345.67,17,0.05,0.02,N,O,TRUCK,comment")
	want := len(checkRowCodec(t, nil, row))
	if saved := len(row) - want; saved != 8 {
		t.Errorf("the four measures of %q encode %d bytes shorter than their text, want 8", row, saved)
	}
	for cents := 1_000_000; cents < 10_000_000; cents += 9973 {
		row := append(strconv.AppendFloat(nil, float64(cents)/100, 'f', 2, 64), ",17,0.05,0.02,N,O,TRUCK,comment"...)
		if got := len(checkRowCodec(t, nil, row)); got != want {
			t.Fatalf("%q encodes to %d bytes, a row of its shape to %d", row, got, want)
		}
	}
}

// TestRowCodecRejectsMalformed: bytes no encoder wrote are an error from
// both decoders, never a panic.
func TestRowCodecRejectsMalformed(t *testing.T) {
	for _, rec := range [][]byte{nil, {0x10}, {0x20}, {0x01}, {0x01, 0x04, 1, 2}, {0x02, 0x01, 5}, {0x01, 0x01, 5, 'x'}} {
		if dec, err := rowcodec.Decode(nil, nil, rec); err == nil {
			t.Errorf("rowcodec.Decode(%x) = %q, want an error", rec, dec)
		}
	}
	for _, rec := range [][]byte{nil, {0x01}, {0x01, 0x04, 1, 2}, {0x02, 0x01, 5}} {
		if v, err := rowcodec.Column(nil, rec, 0, 1); err == nil {
			t.Errorf("rowcodec.Column(%x, 1) = %v, want an error", rec, v)
		}
	}
}

// TestRowCodecAllocs is the codec's allocation gate: reading a column,
// sizing a row and encoding into a warm buffer allocate nothing.
func TestRowCodecAllocs(t *testing.T) {
	row := []byte(rowSeeds[0])
	enc := rowcodec.Encode(nil, nil, row)
	buf := make([]byte, 0, len(row)+1)
	var sink float64
	var size int
	if allocs := testing.AllocsPerRun(1000, func() {
		for idx := 0; idx < 4; idx++ {
			v, _ := rowcodec.Column(nil, enc, 0, idx)
			sink += v
		}
		size += rowcodec.EncodedLen(nil, row) + rowcodec.EncodedLen(nil, rowSeeds[0])
		buf = rowcodec.Encode(nil, buf[:0], row)
		buf = rowcodec.Encode(nil, buf[:0], rowSeeds[0])
	}); allocs != 0 {
		t.Errorf("the row codec allocates %v times per row, want 0", allocs)
	}
}

func FuzzRowCodec(f *testing.F) {
	for _, s := range rowSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkShapeSized(t, nil, in)
		// The same bytes read as an encoded row: an answer or an error.
		rowcodec.Decode(nil, nil, in)
		for idx := 0; idx < 18; idx++ {
			rowcodec.Column(nil, in, 0, idx)
		}
	})
}

// dictSeeds are the seed rows plus the shapes a dictionary codes: the
// benchmark's row over its seven ship modes, digit runs of every length up
// to 19 and past it, and a column offered more skeletons than it holds.
var dictSeeds = func() []string {
	seeds := append([]string(nil), rowSeeds...)
	for i, mode := range []string{"TRUCK", "MAIL", "SHIP", "AIR", "RAIL", "FOB", "REG AIR"} {
		seeds = append(seeds, fmt.Sprintf("%d.%02d,%d,0.0%d,0.0%d,%c,%c,%s,lineitem %09d v%04d carefully final deposits sl",
			1000+i*7919, i*13%100, 1+i, i%9, i%9, "ANR"[i%3], "OF"[i%2], mode, i*104729, i))
	}
	for L := 1; L <= 21; L++ {
		seeds = append(seeds, "x,"+strings.Repeat("7", L)+"-"+strings.Repeat("0", L), strings.Repeat("9", L)+",+0."+strings.Repeat("5", L))
	}
	for i := 0; i < 260; i++ {
		seeds = append(seeds, "1,w"+strings.Repeat("q", i))
	}
	return seeds
}()

// seedDict is the dictionary build would learn from dictSeeds, frozen as a
// served catalog's is.
var seedDict = func() *rowcodec.Dict {
	d := rowcodec.NewDict()
	for _, s := range dictSeeds {
		d.Learn([]byte(s))
	}
	return d
}()

// TestRowCodecDict: a row Learn sized encodes to that length under the
// final dictionary; the benchmark's row codes its text columns to a byte
// each plus their digit runs; a row the dictionary does not help is stored
// exactly as without one; and a coded row read without its dictionary is
// malformed, never a panic.
func TestRowCodecDict(t *testing.T) {
	learned := rowcodec.NewDict()
	sized := make([]int, len(dictSeeds))
	for i, s := range dictSeeds {
		var plain int
		if sized[i], plain, _ = learned.Learn([]byte(s)); plain != rowcodec.EncodedLen(nil, s) {
			t.Fatalf("Learn says %q is %d bytes without a dictionary, EncodedLen says %d", s, plain, rowcodec.EncodedLen(nil, s))
		}
	}
	for i, s := range dictSeeds { // FuzzRowCodecDict's seeds hold each to the contract
		if got := rowcodec.EncodedLen(learned, s); got != sized[i] {
			t.Fatalf("Learn sized %q at %d bytes, the final dictionary encodes it to %d", s, sized[i], got)
		}
	}
	if got := learned.Entries(); got[1] != 255 || got[4] != 3 || got[5] != 2 || got[6] != 7 {
		t.Errorf("skeletons per column %v: want 255 in the full column 1, 3/2/7 for the benchmark's flags and ship modes", got)
	}

	row := "12345.67,17,0.05,0.02,N,O,TRUCK,lineitem 000000042 v0001 carefully final deposits sl"
	enc := checkRowCodec(t, seedDict, []byte(row))
	// 14 bytes of header and measures; a code each for the flags and the
	// ship mode; the comment's code, 4 bytes for 9 digits and 2 for 4.
	if len(enc) != 14+3+7 {
		t.Errorf("the benchmark's row encodes to %d bytes under its dictionary, want 24", len(enc))
	}
	if _, err := rowcodec.Decode(nil, nil, enc); !errors.Is(err, rowcodec.ErrMalformed) {
		t.Errorf("a coded row decoded without its dictionary: %v, want ErrMalformed", err)
	}
	if _, err := rowcodec.Column(nil, enc, 0, 7); !errors.Is(err, rowcodec.ErrMalformed) {
		t.Errorf("a coded column read without its dictionary: %v, want ErrMalformed", err)
	}
	for _, free := range []string{
		"12345.67,17,0.05,0.02,Q,Z,BIKE,a comment no build saw 12",
		"1,w" + strings.Repeat("q", 300),
		"x,12345678901234567890",
		"free text, in every column",
	} {
		if got, want := rowcodec.Encode(seedDict, nil, free), rowcodec.Encode(nil, nil, free); !bytes.Equal(got, want) {
			t.Errorf("%q encodes to %x under the dictionary, %x without", free, got, want)
		}
	}
}

// TestRowCodecDictAllocs is the coded half of the allocation gate: sizing
// and encoding a row under a dictionary, and summing a coded column, into
// warm buffers allocate nothing.
func TestRowCodecDictAllocs(t *testing.T) {
	row := []byte("12345.67,17,0.05,N,+0.75,lineitem 000000042 v0000 carefully final deposits sl")
	d := rowcodec.NewDict()
	d.Learn(row)
	buf := make([]byte, 0, len(row)+1)
	sum := rowcodec.NewSum(d, 4)
	var size int
	if allocs := testing.AllocsPerRun(1000, func() {
		size += rowcodec.EncodedLen(d, row)
		buf = rowcodec.Encode(d, buf[:0], row)
		if _, err := sum.Add(buf); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("encoding and summing under a dictionary allocates %v times per row, want 0", allocs)
	}
	if len(buf) >= rowcodec.EncodedLen(nil, row) {
		t.Errorf("the gate's row is not coded: %d bytes, %d without the dictionary", len(buf), rowcodec.EncodedLen(nil, row))
	}
	if got, err := sum.Total(); err != nil || got != 0.75*1001 {
		t.Errorf("sum of the coded column = %v, %v; want %v", got, err, 0.75*1001)
	}
}

func FuzzRowCodecDict(f *testing.F) {
	for _, s := range dictSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		checkShapeSized(t, seedDict, in)
		// The same bytes read as a row coded under the dictionary: an
		// answer or an error.
		rowcodec.Decode(seedDict, nil, in)
		for idx := 0; idx < 18; idx++ {
			rowcodec.Column(seedDict, in, 0, idx)
			s := rowcodec.NewSum(seedDict, idx)
			s.Add(in)
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
	adm, err := storage.NewAdmission(64, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(fs, schema, c, adm, 5*time.Second, trace.Config{})
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

// packedSeeds are cells of rows, one a line, for FuzzRowCodecPacked: the
// benchmark's rows, decimals that widen, flip sign or change fraction
// count, skeletons with runs of every length up to 19 (a 64-bit slot), rows
// of other shapes that stay framed, a one-row cell, and cells longer than a
// 64-byte page holds, packed and framed.
var packedSeeds = func() []string {
	seeds := []string{
		strings.Join(dictSeeds[len(rowSeeds):len(rowSeeds)+7], "\n"),
		"1.5,N,x 12\n22.5,R,x 7\n-0.5,A,x 99\n-0.0,N,x 00",
		"7\n8\n-9\n123456789012345\n0",
		"a\nb\nc\na",
		"\n\n",
		"1,2\n1,2,3\n1.5,2\n1,x\n12,34",
		"x,7777777777777777777-0000000000000000000\nx,1-2\ny,9999999999999999999-1",
		"0.05,0.10\n0.00,9.99\n1.25,0.5\n0.5,1.25",
		"9007199254740992\n1\n-9007199254740992",
		"val00,7.5\nval01,7.5\nXXX00,9.5\nval02,17.5",
		"1,v 1\n1,v 12\n1,w 123 4\n1,w 1 12",
		"1079.19,2,0.01,0.01,N,F,MAIL,lineitem 000104729 v0000 carefully final deposits sl",
		"12.5,N\n1.25,R,x\n13.5,A\n99.5,N",
		strings.Join(dictSeeds[len(rowSeeds):len(rowSeeds)+12], "\n"),
		"val00 0001,7.5\nval01 0002,7.5\nval02 0003,7.5\nval03 0004,7.5\nval04 0005,7.5\nval05 0006,7.5",
	}
	return seeds
}()

func FuzzRowCodecPacked(f *testing.F) {
	for _, s := range packedSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, in []byte) { checkPacked(t, in) })
}

// TestRowCodecPacked runs FuzzRowCodecPacked's property over cells of the
// benchmark's rows, and over random cells of the seeds' rows.
func TestRowCodecPacked(t *testing.T) {
	for i := len(rowSeeds); i+8 <= len(dictSeeds); i += 4 {
		checkPacked(t, []byte(strings.Join(dictSeeds[i:i+8], "\n")))
	}
	for i := 0; i+5 <= len(rowSeeds); i++ {
		checkPacked(t, []byte(strings.Join(rowSeeds[i:i+5], "\n")))
	}
}

// checkPacked learns a Dict and row template from the lines of in, as build
// does, and holds the frameless packed cell of the rows that fit to the
// marker-framed cell they would otherwise be: every row of the template's
// shape packs; the packed cell is its rows alone, W bytes each; both cells
// pass the cell check and decode to exactly those rows; CellRows counts
// them; Sum of every column agrees between them to the bit, errors to the
// letter; and EncodeCell picks one of the two. Any row Pack takes, fitted
// or not, decodes to itself.
func checkPacked(t *testing.T, in []byte) {
	t.Helper()
	lines := bytes.Split(in[:min(len(in), 1024)], []byte("\n"))
	if len(lines) > 16 {
		lines = lines[:16]
	}
	d := rowcodec.NewDict()
	shapes := make([]int, len(lines))
	cols := 0
	for i, line := range lines {
		_, _, shapes[i] = d.Learn(line)
		cols = max(cols, bytes.Count(line, []byte(","))+1)
	}
	if d.Template() == nil {
		for i, line := range lines {
			if shapes[i] != rowcodec.NoShape {
				t.Fatalf("%q has a shape, but no template was learned", line)
			}
		}
		return
	}
	var fit [][]byte
	var packed []byte
	for i, line := range lines {
		if !d.Fits(shapes[i]) {
			continue
		}
		fit = append(fit, line)
		var ok bool
		if packed, ok = rowcodec.Pack(d, packed, line); !ok {
			t.Fatalf("%q has the template's shape, Pack refuses it", line)
		}
	}
	if !d.Frameless() || len(packed) != len(fit)*d.Width() || int64(len(packed)) != d.PackedLen(len(fit)) {
		t.Fatalf("packed cell of %d rows is %d bytes, W %d, PackedLen %d", len(fit), len(packed), d.Width(), d.PackedLen(len(fit)))
	}
	framed := d.AppendMarker(nil)
	var size int64
	for _, row := range fit {
		framed = rowcodec.AppendFramedRow(d, framed, row)
		size += rowcodec.FrameSize(rowcodec.EncodedLen(d, row))
	}
	want := bytes.Join(fit, []byte("\n"))
	for _, c := range []struct {
		name string
		cell []byte
	}{{"packed", packed}, {"framed", framed}} {
		if n, err := rowcodec.CheckCell(d, c.cell); err != nil || n != len(fit) {
			t.Fatalf("%s cell of %q: CheckCell = %d, %v", c.name, fit, n, err)
		}
		if n, err := rowcodec.CellRows(d, c.cell); err != nil || n != len(fit) {
			t.Fatalf("%s cell of %q: CellRows = %d, %v", c.name, fit, n, err)
		}
		if text, err := rowcodec.DecodeCell(d, nil, c.cell); err != nil || !bytes.Equal(text, want) {
			t.Fatalf("%s cell of %q decodes to %q, %v", c.name, fit, text, err)
		}
	}
	enc := rowcodec.EncodeCell(d, fit)
	if n, isPacked := d.CellLen(len(fit), size, true); int64(len(enc)) != n || !bytes.Equal(enc, packed) && !bytes.Equal(enc, framed) || isPacked != bytes.Equal(enc, packed) {
		t.Fatalf("EncodeCell(%q) = %x, CellLen %d %v; packed %x, framed %x", fit, enc, n, isPacked, packed, framed)
	}
	for idx := 0; idx <= min(cols+1, 12); idx++ {
		ps, fs := rowcodec.NewSum(d, idx), rowcodec.NewSum(d, idx)
		pn, perr := ps.AddCell(packed)
		fn, ferr := fs.AddCell(framed)
		pt, pte := ps.Total()
		ft, fte := fs.Total()
		if fmt.Sprint(perr) != fmt.Sprint(ferr) || perr == nil && (pn != fn || math.Float64bits(pt) != math.Float64bits(ft) || fmt.Sprint(pte) != fmt.Sprint(fte)) {
			t.Fatalf("sum of column %d over %q: packed %d rows %v, %v, %v; framed %d rows %v, %v, %v", idx, fit, pn, pt, pte, perr, fn, ft, fte, ferr)
		}
	}
	for _, line := range lines {
		if one, ok := rowcodec.Pack(d, nil, line); ok {
			if text, err := rowcodec.DecodeCell(d, nil, one); err != nil || !bytes.Equal(text, line) {
				t.Fatalf("Pack takes %q, which decodes to %q, %v", line, text, err)
			}
		}
	}
}
