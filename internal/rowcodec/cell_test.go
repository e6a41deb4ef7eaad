package rowcodec

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
)

// cellDicts are the three kinds of store a cell can be read under: no
// template (version 4 and 5), a version 6 template without the marker bit,
// and a version 7 one with it, all over the benchmark's rows.
func cellDicts(t testing.TB) (none, v6, v7 *Dict) {
	rows := benchRows(16)
	v7 = NewDict()
	for _, r := range rows {
		v7.Learn([]byte(r))
	}
	tm := v7.Template()
	dj, _ := json.Marshal(v7)
	tj, _ := json.Marshal(tm)
	none, v6 = new(Dict), new(Dict)
	var t6 Template
	if json.Unmarshal(dj, none) != nil || json.Unmarshal(dj, v6) != nil ||
		json.Unmarshal(bytes.Replace(tj, []byte(`,"marker":true`), nil, 1), &t6) != nil || v6.SetTemplate(&t6) != nil || v6.Frameless() {
		t.Fatalf("the dictionaries of %s", tj)
	}
	return none, v6, v7
}

// FuzzCellCheck: on any bytes, under each kind of store, the cell check
// never panics, and when it accepts n rows, CellRows says n, DecodeCell
// either fails or gives at least n lines, and a sum of every column either
// fails or adds n rows. A packed cell the check accepts always decodes, to
// n lines that pack back to the same bytes, and sums without a malformed
// row.
func FuzzCellCheck(f *testing.F) {
	none, v6, v7 := cellDicts(f)
	rows := benchRows(5)
	for _, d := range []*Dict{none, v6, v7} {
		f.Add(EncodeCell(d, rows[:1]))
		f.Add(EncodeCell(d, rows))
		f.Add(EncodeCell(d, []string{"1,2", "x"}))
	}
	long := EncodeCell(v7, benchRows(9)) // longer than a 64-byte page's 56 usable bytes
	f.Add(long)
	f.Add(long[:len(long)-1])
	f.Add([]byte{marker})
	f.Add([]byte{0x03, 0, 0, 0, 0})
	f.Add([]byte{tagPacked})
	f.Fuzz(func(t *testing.T, cell []byte) {
		for _, d := range []*Dict{none, v6, v7} {
			n, err := CheckCell(d, cell)
			if err != nil {
				continue
			}
			if m, err := CellRows(d, cell); err != nil || m != n {
				t.Fatalf("CheckCell says %d rows, CellRows %d, %v", n, m, err)
			}
			packed := d.Frameless() && len(cell) > 0 && cell[0]&1 == 0
			text, err := DecodeCell(d, nil, cell)
			if err == nil && n > 0 {
				lines := bytes.Split(text, []byte("\n"))
				if len(lines) < n {
					t.Fatalf("%d rows decode to %d lines", n, len(lines))
				}
				var again []byte
				for _, line := range lines {
					again, _ = Pack(d, again, line)
				}
				if packed && (len(lines) != n || !bytes.Equal(again, cell)) {
					t.Fatalf("packed cell %x of %d rows decodes to %q, which packs to %x", cell, n, text, again)
				}
			}
			if packed && err != nil {
				t.Fatalf("a packed cell the check accepts does not decode: %v", err)
			}
			for col := 0; col < 9; col++ {
				s := NewSum(d, col)
				m, err := s.AddCell(cell)
				if err == nil && m != n {
					t.Fatalf("column %d: CheckCell says %d rows, AddCell added %d", col, n, m)
				}
				if packed && errors.Is(err, ErrMalformed) {
					t.Fatalf("column %d: a packed cell the check accepts sums as malformed", col)
				}
			}
		}
	})
}

// TestCellForms: each kind of store keeps the benchmark's rows in its own
// form, and reads them back: no template, framed rows; a version 6
// template, one tagged block framed as a record; a version 7 one, the rows
// alone, 13 bytes each. A framed cell under a version 7 template starts
// with the marker, and a cell of rows of mixed shapes is framed in every
// store.
func TestCellForms(t *testing.T) {
	none, v6, v7 := cellDicts(t)
	rows := benchRows(3)
	mixed := append(benchRows(2), "1,2")
	for _, c := range []struct {
		name         string
		d            *Dict
		rows         []string
		size         int
		first        byte
		framedRecord bool
	}{
		{"no template", none, rows, -1, 0, true},
		{"version 6", v6, rows, 4 + 1 + 3*13, 0, true},
		{"version 7", v7, rows, 3 * 13, 0, false},
		{"version 7, mixed", v7, mixed, -1, marker, false},
	} {
		cell := EncodeCell(c.d, c.rows)
		if c.size >= 0 && len(cell) != c.size {
			t.Errorf("%s: a cell of %d bytes, want %d", c.name, len(cell), c.size)
		}
		if c.first != 0 && cell[0] != c.first {
			t.Errorf("%s: first byte %#x, want %#x", c.name, cell[0], c.first)
		}
		if c.framedRecord {
			if _, _, err := NextRecord(0, cell); err != nil {
				t.Errorf("%s: not framed records: %v", c.name, err)
			}
		}
		if n, err := CheckCell(c.d, cell); err != nil || n != len(c.rows) {
			t.Errorf("%s: CheckCell %d, %v", c.name, n, err)
		}
		if text, err := DecodeCell(c.d, nil, cell); err != nil || string(text) != strings.Join(c.rows, "\n") {
			t.Errorf("%s: DecodeCell %q, %v", c.name, text, err)
		}
	}
}
