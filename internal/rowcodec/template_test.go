package rowcodec

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
)

// benchRows are rows of the benchmark's shape: four decimals, two flags, a
// ship mode and a comment with an order key and a version stamp.
func benchRows(n int) []string {
	modes := []string{"TRUCK", "MAIL", "SHIP", "AIR", "RAIL", "FOB", "REG AIR"}
	rows := make([]string, n)
	for i := range rows {
		rows[i] = fmt.Sprintf("%d.%02d,%d,0.%02d,0.%02d,%c,%c,%s,lineitem %09d v%04d carefully final deposits sl",
			900+i*7919%99000, i*13%100, 1+i%50, i%11, i%9, "ANR"[i%3], "OF"[i%2], modes[i%7], i*104729, i%3)
	}
	return rows
}

// TestTemplateBenchmarkRow: the benchmark's rows all fit one template of
// 13 bytes a row — the marker bit, decimals of 7, 2, 3 and 3 digits, codes
// of 2, 1, 3 and 0 bits and the comment's runs of 9 and 4 digits — and a
// packed cell of them is 13 bytes a row with nothing else, and decodes,
// reads and sums as the framed rows do.
func TestTemplateBenchmarkRow(t *testing.T) {
	rows := benchRows(64)
	d := NewDict()
	shapes := make([]int, len(rows))
	for i, r := range rows {
		_, _, shapes[i] = d.Learn([]byte(r))
	}
	tm := d.Template()
	if d.Width() != 13 || !d.Frameless() {
		data, _ := json.Marshal(tm)
		t.Fatalf("row width %d, want 13 with the marker bit: %s", d.Width(), data)
	}
	var cell []byte
	for i, r := range rows {
		var ok bool
		if !d.Fits(shapes[i]) {
			t.Fatalf("%q does not fit the template", r)
		}
		if cell, ok = Pack(d, cell, r); !ok {
			t.Fatalf("Learn said %q fits, Pack refuses it", r)
		}
	}
	if n, err := CellRows(d, cell); err != nil || n != len(rows) || len(cell) != 13*len(rows) || int64(len(cell)) != d.PackedLen(len(rows)) {
		t.Fatalf("CellRows = %d, %v; cell of %d bytes, PackedLen %d", n, err, len(cell), d.PackedLen(len(rows)))
	}
	if n, err := CheckCell(d, cell); err != nil || n != len(rows) {
		t.Fatalf("CheckCell = %d, %v", n, err)
	}
	text, err := DecodeCell(d, nil, cell)
	if err != nil || string(text) != strings.Join(rows, "\n") {
		t.Fatalf("DecodeCell: %v\n%s", err, text)
	}
	for col := 0; col < 9; col++ {
		packed, framed := NewSum(d, col), NewSum(d, col)
		_, perr := packed.AddCell(cell)
		var ferr error
		for r, row := range rows {
			enc := Encode(d, nil, row)
			if _, err := framed.Add(enc); err != nil && ferr == nil {
				ferr = err
			}
			pv, pe := d.packedColumn(cell, r, col)
			fv, fe := Column(d, enc, 0, col)
			if math.Float64bits(pv) != math.Float64bits(fv) || fmt.Sprint(pe) != fmt.Sprint(fe) {
				t.Fatalf("column %d of row %d: packed %v, %v; framed %v, %v", col, r, pv, pe, fv, fe)
			}
		}
		pt, pe := packed.Total()
		ft, fe := framed.Total()
		if fmt.Sprint(perr) != fmt.Sprint(ferr) || math.Float64bits(pt) != math.Float64bits(ft) || fmt.Sprint(pe) != fmt.Sprint(fe) {
			t.Errorf("sum of column %d: packed %v, %v, %v; framed %v, %v, %v", col, pt, pe, perr, ft, fe, ferr)
		}
	}
}

// TestTemplateMostCommonShape: the template is the shape most rows have,
// not the first row's: a first row with another fraction count, or with
// one column more, leaves every row of the common shape fitting, and only
// those.
func TestTemplateMostCommonShape(t *testing.T) {
	for _, outlier := range []string{"1.5,N,x 12", "10.25,N,x 12,extra"} {
		rows := []string{outlier, "10.25,N,x 12", "9.75,R,x 7", "-1.05,A,x 99", "3.10,N,x 1"}
		d := NewDict()
		shapes := make([]int, len(rows))
		for i, r := range rows {
			_, _, shapes[i] = d.Learn([]byte(r))
		}
		d.Template()
		for i, r := range rows {
			_, packs := Pack(d, nil, r)
			if fits := d.Fits(shapes[i]); fits != (i > 0) || packs != fits {
				t.Errorf("outlier %q first: %q fits %v and packs %v, want %v", outlier, r, fits, packs, i > 0)
			}
		}
	}
}

// TestTemplateJSON: a template survives the catalog beside its Dict, and
// one whose coded widths are not the Dict's, or whose decimal no canonical
// text has, is refused with a *TemplateError.
func TestTemplateJSON(t *testing.T) {
	d := NewDict()
	for _, r := range []string{"-1.5,N,x 12", "22.5,R,x 7"} {
		d.Learn([]byte(r))
	}
	tm := d.Template()
	data, err := json.Marshal(tm)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"decimals":[{"frac":1,"digits":3,"signed":true}],"coded":[{"codeBits":1},{"codeBits":1,"runBits":[7]}],"marker":true}`
	if string(data) != want {
		t.Fatalf("template JSON %s, want %s", data, want)
	}
	dictJSON, _ := json.Marshal(d)
	var back Dict
	var backT Template
	if err := json.Unmarshal(dictJSON, &back); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &backT); err != nil {
		t.Fatal(err)
	}
	if err := back.SetTemplate(&backT); err != nil || back.Width() != d.Width() || !back.Frameless() {
		t.Fatalf("SetTemplate: %v, width %d, want %d, frameless %v", err, back.Width(), d.Width(), back.Frameless())
	}
	cell, _ := Pack(d, nil, "-9.5,R,x 99")
	if text, err := DecodeCell(&back, nil, cell); err != nil || string(text) != "-9.5,R,x 99" {
		t.Errorf("a cell through the catalog: %q, %v", text, err)
	}
	for _, bad := range []string{
		`{"decimals":[{"frac":2,"digits":2}],"coded":[]}`,
		`{"decimals":[{"frac":0,"digits":17}],"coded":[]}`,
		`{"decimals":[],"coded":[{"codeBits":9}]}`,
		`{"decimals":[],"coded":[{"codeBits":1,"runBits":[65]}]}`,
		`{"decimals":[],"coded":[]}`,
	} {
		var tt Template
		var te *TemplateError
		if err := json.Unmarshal([]byte(bad), &tt); !errors.As(err, &te) {
			t.Errorf("%s: err %v, want a *TemplateError", bad, err)
		}
	}
	for _, bad := range []string{
		`{"decimals":[{"frac":1,"digits":3}],"coded":[{"codeBits":2},{"codeBits":1,"runBits":[7]}]}`,
		`{"decimals":[{"frac":1,"digits":3}],"coded":[{"codeBits":1},{"codeBits":1}]}`,
	} {
		var tt Template
		var te *TemplateError
		if err := json.Unmarshal([]byte(bad), &tt); err != nil {
			t.Fatal(err)
		}
		if err := back.SetTemplate(&tt); !errors.As(err, &te) || te.Column < 1 {
			t.Errorf("%s: SetTemplate %v, want a *TemplateError on a coded column", bad, err)
		}
	}
}

// TestTemplateMisfits: a row of another shape, a decimal longer than the
// template's or with another fraction count, a sign the template has no bit
// for and a skeleton the Dict does not hold do not pack.
func TestTemplateMisfits(t *testing.T) {
	d := NewDict()
	for _, r := range []string{"10.25,N,x 12", "9.5,R,x 7", "1,A,y"} {
		d.Learn([]byte(r))
	}
	d.Template()
	if _, ok := Pack(d, nil, "99.75,A,x 34"); !ok {
		t.Fatal("a row of the template's shape does not pack")
	}
	for _, r := range []string{"9.5,R,x 7", "100.25,N,x 12", "-1.25,N,x 12", "1.5,N,x 12", "1.25,Q,x 12", "1.25,N,x 123", "1.25,N", "1.25,N,x 12,", "1.25,N,y,"} {
		if _, ok := Pack(d, nil, r); ok {
			t.Errorf("%q packs", r)
		}
	}
}
