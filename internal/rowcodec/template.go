package rowcodec

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
)

const (
	// tagPacked is the first byte of a packed block: bit 6, which no framed
	// row's header sets.
	tagPacked = 0x40
	// maxDecDigits is the most digits a canonical decimal has: its mantissa
	// is at most 2^53 and its integer part has no leading zero.
	maxDecDigits = 16
)

// digitBits[L] is ⌈L·log₂10⌉, the bits 10^L − 1 needs: the width of a
// packed decimal of L digits, or of a digit run of L digits.
var digitBits [maxRun + 1]uint8

// pow10u[L] is 10^L: a packed field of L digits holds less.
var pow10u [maxRun + 1]uint64

func init() {
	pow10u[0] = 1
	for L := 1; L <= maxRun; L++ {
		pow10u[L] = pow10u[L-1] * 10
		digitBits[L] = uint8(bits.Len64(pow10u[L] - 1))
	}
}

// rowShape is what the row template sees of a row while build learns it:
// the fraction count, sign and digit count of each binary column, how many
// columns follow them, and whether one of those has no skeleton in the Dict.
type rowShape struct {
	n       int
	meta    [maxBinaryCols]byte
	digits  [maxBinaryCols]uint8
	tail    int
	escaped bool
}

// Template is the row template: one fixed width W for every row of one
// shape, so that a cell whose rows all have it is stored as one packed
// block instead of framed rows. build learns it in the scan that learns the
// Dict (Learn) and fixes it there (Template); the catalog keeps it beside
// the Dict (SetTemplate). Its columns are the shape of a framed row: the
// leading binary columns, each a canonical decimal with a fixed fraction
// count, then the coded columns, each a code against its Dict column plus
// the values of the skeleton's digit runs.
type Template struct {
	decs  []decField
	coded []codedField
	width int    // W, bytes of one packed row
	recip uint64 // ⌊2^64 / W⌋ + 1: x / W is the high word of x · recip for x < 2^32
}

// decField is a binary column: a sign bit when signed, then the mantissa
// in digitBits[digits] bits.
type decField struct {
	frac, digits uint8
	signed       bool
	off          int // bit offset in the row
}

// codedField is a coded column: the code in codeBits bits, then one slot
// per digit run, slot k wide enough for run k of every skeleton the
// column's Dict entries hold (a skeleton with fewer runs leaves the rest 0).
type codedField struct {
	codeBits uint8
	runBits  []uint8
	off      int
}

// learnShape widens the template being learned to a row of shape sh and
// reports whether the row has the template's shape: the same binary
// columns with the same fraction counts, the same number of columns after
// them, each with a skeleton in the Dict. The first row with a skeleton for
// every column sets the shape. Widening only ever admits more — a longer
// decimal, a sign, more skeletons — so a row that fits here fits the
// template Template fixes.
func (d *Dict) learnShape(sh *rowShape) bool {
	if sh.escaped {
		return false
	}
	s := d.shape
	if s == nil {
		s = &Template{decs: make([]decField, sh.n), coded: make([]codedField, sh.tail)}
		for i := range s.decs {
			s.decs[i] = decField{frac: sh.meta[i] >> 3 & maxFrac, digits: sh.digits[i], signed: sh.meta[i]&0x80 != 0}
		}
		d.shape = s
		return true
	}
	if sh.n != len(s.decs) || sh.tail != len(s.coded) {
		return false
	}
	for i := range s.decs {
		if sh.meta[i]>>3&maxFrac != s.decs[i].frac {
			return false
		}
	}
	for i := range s.decs {
		f := &s.decs[i]
		f.digits = max(f.digits, sh.digits[i])
		f.signed = f.signed || sh.meta[i]&0x80 != 0
	}
	return true
}

// Template fixes the row template Learn widened and returns it, nil when no
// row set a shape: from then on Pack packs every row Learn said fits. The
// coded columns take their widths from the Dict as it stands, so Template
// comes after the last Learn.
func (d *Dict) Template() *Template {
	if d.shape == nil {
		return nil
	}
	t := &Template{decs: append([]decField(nil), d.shape.decs...)}
	t.coded = d.codedFields(len(t.decs), len(d.shape.coded))
	t.layout()
	d.tmpl = t
	return t
}

// codedFields are the widths of count coded columns from payload column
// first on: each code holds the column's every entry, each run slot the
// longest run any entry has in that place.
func (d *Dict) codedFields(first, count int) []codedField {
	out := make([]codedField, count)
	for i := range out {
		f := &out[i]
		if col := first + i; col < len(d.cols) {
			entries := d.cols[col].entries
			if len(entries) > 1 {
				f.codeBits = uint8(bits.Len(uint(len(entries) - 1)))
			}
			for _, e := range entries {
				for k, L := range e.runs {
					if k == len(f.runBits) {
						f.runBits = append(f.runBits, 0)
					}
					f.runBits[k] = max(f.runBits[k], digitBits[L])
				}
			}
		}
	}
	return out
}

// layout places the fields one after another, least significant bit
// first, and sets the width: the bytes they take, at least one.
func (t *Template) layout() {
	off := 0
	for i := range t.decs {
		f := &t.decs[i]
		f.off = off
		if f.signed {
			off++
		}
		off += int(digitBits[f.digits])
	}
	for i := range t.coded {
		f := &t.coded[i]
		f.off = off
		off += int(f.codeBits)
		for _, b := range f.runBits {
			off += int(b)
		}
	}
	t.width = max(1, (off+7)/8)
	t.recip = ^uint64(0)/uint64(t.width) + 1 // 0 for W = 1, which rows divides by itself
}

// SetTemplate gives d the row template a catalog kept beside it. The
// coded columns' widths must be the ones the Dict's entries give
// (Template's rule), or it is refused with a *TemplateError: a row packed
// under other widths would read as other text.
func (d *Dict) SetTemplate(t *Template) error {
	want := d.codedFields(len(t.decs), len(t.coded))
	for i, w := range want {
		g := t.coded[i]
		same := g.codeBits == w.codeBits && len(g.runBits) == len(w.runBits)
		for k := 0; same && k < len(w.runBits); k++ {
			same = g.runBits[k] == w.runBits[k]
		}
		if !same {
			return &TemplateError{len(t.decs) + i, fmt.Sprintf("code width %d and run widths %v, the dictionary's skeletons need %d and %v",
				g.codeBits, g.runBits, w.codeBits, w.runBits)}
		}
	}
	t.layout()
	d.tmpl = t
	return nil
}

// Width is the bytes of one packed row, 0 when d has no row template.
func (d *Dict) Width() int {
	if d == nil || d.tmpl == nil {
		return 0
	}
	return d.tmpl.width
}

// PackedLen is the length of a packed block of rows rows: the tag byte,
// then Width bytes a row.
func (d *Dict) PackedLen(rows int) int { return 1 + rows*d.Width() }

// AppendTag starts a packed block in dst: the tag byte, after which Pack
// appends the rows.
func AppendTag(dst []byte) []byte { return append(dst, tagPacked) }

// packed reports whether rec is a packed block: d has a row template and
// rec starts with the tag. Anything else is a framed row.
func (d *Dict) packed(rec []byte) bool {
	return d != nil && d.tmpl != nil && len(rec) > 0 && rec[0] == tagPacked
}

// Rows is the number of rows the stored record rec holds: (len(rec) − 1)
// / Width for a packed block, 1 for a framed row.
func Rows(d *Dict, rec []byte) (int, error) {
	if !d.packed(rec) {
		return 1, nil
	}
	return d.tmpl.rows(rec)
}

// rows is Rows of a packed block. A block is one stored record, shorter than
// 2^32 bytes, so the quotient is a multiply: a division per cell is a
// visible share of a query that sums thousands of one-row cells.
func (t *Template) rows(rec []byte) (int, error) {
	body := uint64(len(rec) - 1)
	n, _ := bits.Mul64(body, t.recip)
	if t.recip == 0 {
		n = body
	}
	if body >= 1<<32 || n*uint64(t.width) != body {
		return 0, ErrMalformed
	}
	return int(n), nil
}

// Pack appends the packed form of row t to dst, Width bytes, and reports
// true when t fits the row template: each binary column a canonical
// decimal with the template's fraction count, no more digits than it
// allows and a sign only where it has one, each coded column a skeleton
// the Dict holds, and no column more. Otherwise dst comes back as it was.
// Every row Learn said fits, fits.
func Pack[T text](d *Dict, dst []byte, t T) ([]byte, bool) {
	if d == nil || d.tmpl == nil {
		return dst, false
	}
	tm := d.tmpl
	base := len(dst)
	for range tm.width {
		dst = append(dst, 0)
	}
	row := dst[base:]
	last := len(tm.decs) + len(tm.coded) - 1
	pos := 0
	// next steps past the column that ends at pos+end: the comma before
	// column c+1, or the end of the row after the last column.
	next := func(c, end int) bool {
		if pos += end; c == last {
			return pos == len(t)
		}
		pos++
		return pos <= len(t)
	}
	for c := range tm.decs {
		f := &tm.decs[c]
		mant, meta, end, ok := scanCanonical(t[pos:])
		if !ok || meta>>3&maxFrac != f.frac || mant >= pow10u[f.digits] || meta&0x80 != 0 && !f.signed {
			return dst[:base], false
		}
		off := f.off
		if f.signed {
			putBits(row, off, uint64(meta>>7), 1)
			off++
		}
		putBits(row, off, mant, int(digitBits[f.digits]))
		if !next(c, end) {
			return dst[:base], false
		}
	}
	for i := range tm.coded {
		f := &tm.coded[i]
		c := len(tm.decs) + i
		_, code, _, end := lookup(d, c, t[pos:], nil, false, false)
		if code == escape {
			return dst[:base], false
		}
		putBits(row, f.off, uint64(code), int(f.codeBits))
		e := &d.cols[c].entries[code]
		off, p := f.off+int(f.codeBits), pos
		for k, L := range e.runs {
			p += len(e.lits[k])
			var v uint64
			for end := p + int(L); p < end; p++ {
				v = v*10 + uint64(t[p]-'0')
			}
			putBits(row, off, v, int(f.runBits[k]))
			off += int(f.runBits[k])
		}
		if !next(c, end) {
			return dst[:base], false
		}
	}
	return dst, true
}

// putBits ORs the low n bits of v (v < 2^n) into row at bit offset off.
func putBits(row []byte, off int, v uint64, n int) {
	for n > 0 {
		i, s := off>>3, off&7
		row[i] |= byte(v << s)
		k := min(8-s, n)
		v >>= k
		off += k
		n -= k
	}
}

// getBits reads the n bits at bit offset off of row.
func getBits(row []byte, off, n int) uint64 {
	var v uint64
	for got := 0; got < n; {
		i, s := (off+got)>>3, (off+got)&7
		k := min(8-s, n-got)
		v |= uint64(row[i]>>s) & (1<<k - 1) << got
		got += k
	}
	return v
}

// decimal reads binary column c of a packed row: its mantissa and sign.
func (t *Template) decimal(row []byte, c int) (mant uint64, neg bool, err error) {
	f := &t.decs[c]
	off := f.off
	if f.signed {
		neg = getBits(row, off, 1) != 0
		off++
	}
	if mant = getBits(row, off, int(digitBits[f.digits])); mant >= pow10u[f.digits] {
		return 0, false, ErrMalformed
	}
	return mant, neg, nil
}

// appendCoded appends the text of coded column c of a packed row.
func (d *Dict) appendCoded(dst, row []byte, c int) ([]byte, error) {
	f := &d.tmpl.coded[c-len(d.tmpl.decs)]
	e, ok := d.entry(c, byte(getBits(row, f.off, int(f.codeBits))))
	if !ok {
		return dst, ErrMalformed
	}
	off := f.off + int(f.codeBits)
	for k, L := range e.runs {
		dst = append(dst, e.lits[k]...)
		if dst, ok = appendRun(dst, getBits(row, off, int(f.runBits[k])), int(L)); !ok {
			return dst, ErrMalformed
		}
		off += int(f.runBits[k])
	}
	return append(dst, e.lits[len(e.runs)]...), nil
}

// decodePacked appends the text of every row of the packed block rec, one
// line each, joined by '\n'.
func (d *Dict) decodePacked(dst, rec []byte) ([]byte, error) {
	n, err := Rows(d, rec)
	if err != nil {
		return dst, err
	}
	tm := d.tmpl
	for r := 0; r < n; r++ {
		if r > 0 {
			dst = append(dst, '\n')
		}
		row := rec[1+r*tm.width:]
		for c := range tm.decs {
			if c > 0 {
				dst = append(dst, ',')
			}
			mant, neg, err := tm.decimal(row, c)
			if err != nil {
				return dst, err
			}
			dst = appendDecimal(dst, mant, tm.decs[c].frac, neg)
		}
		for c := len(tm.decs); c < len(tm.decs)+len(tm.coded); c++ {
			if c > 0 {
				dst = append(dst, ',')
			}
			if dst, err = d.appendCoded(dst, row, c); err != nil {
				return dst, err
			}
		}
	}
	return dst, nil
}

// packedColumn is Column on row r of the packed block rec.
func (d *Dict) packedColumn(rec []byte, r, idx int) (float64, error) {
	n, err := Rows(d, rec)
	switch tm := d.tmpl; {
	case err != nil:
		return 0, err
	case r < 0 || r >= n:
		return 0, fmt.Errorf("row %d of a record of %d rows", r, n)
	case idx < 0 || idx >= len(tm.decs)+len(tm.coded):
		return 0, shortRow(len(tm.decs)+len(tm.coded), idx)
	case idx < len(tm.decs):
		mant, neg, err := tm.decimal(rec[1+r*tm.width:], idx)
		if err != nil {
			return 0, err
		}
		f := float64(mant) / pow10[tm.decs[idx].frac]
		if neg {
			f = -f
		}
		return f, nil
	default:
		var buf [maxColumnText]byte
		text, err := d.appendCoded(buf[:0], rec[1+r*tm.width:], idx)
		if err != nil {
			return 0, err
		}
		return parseDecimal(text)
	}
}

// addPacked adds column s.col of every row of the packed block rec and
// returns how many rows it holds. A binary column is a strided integer
// loop: its field sits at the same bit offset of every row, so a row is one
// unaligned 8-byte load, a shift and a mask, while 8 bytes are left in the
// block.
func (s *Sum) addPacked(rec []byte) (int, error) {
	tm := s.d.tmpl
	n, err := tm.rows(rec)
	switch {
	case err != nil:
		return 0, err
	case n == 0:
		return 0, nil
	case s.col >= len(tm.decs)+len(tm.coded):
		return 0, shortRow(len(tm.decs)+len(tm.coded), s.col)
	case s.col >= len(tm.decs):
		if s.buf == nil {
			s.buf = new([maxColumnText]byte)
		}
		for r := 0; r < n; r++ {
			text, err := s.d.appendCoded(s.buf[:0], rec[1+r*tm.width:], s.col)
			if err != nil {
				return 0, err
			}
			if err := s.addText(text); err != nil {
				return 0, err
			}
		}
		return n, nil
	}
	f := &tm.decs[s.col]
	frac, w, body := int(f.frac), tm.width, rec[1:]
	r := 0
	if !f.signed {
		at, shift := f.off>>3, f.off&7
		mask, limit := uint64(1)<<digitBits[f.digits]-1, pow10u[f.digits]
		lo, hi := s.lo[frac], s.hi[frac]
		for ; r < n && r*w+at+8 <= len(body); r++ {
			mant := binary.LittleEndian.Uint64(body[r*w+at:]) >> shift & mask
			if mant >= limit {
				return 0, ErrMalformed
			}
			var c uint64
			lo, c = bits.Add64(lo, mant, 0)
			hi += int64(c)
		}
		s.lo[frac], s.hi[frac] = lo, hi
		s.used |= 1 << frac
	}
	for ; r < n; r++ {
		mant, neg, err := tm.decimal(body[r*w:], s.col)
		if err != nil {
			return 0, err
		}
		s.add(mant, frac, neg)
	}
	return n, nil
}

// TemplateError is a catalog's row template that no build wrote.
type TemplateError struct {
	Column int
	Reason string
}

func (e *TemplateError) Error() string {
	return fmt.Sprintf("row template, column %d: %s", e.Column, e.Reason)
}

// templateJSON is a Template as the catalog stores it: its binary columns,
// then its coded columns, in column order.
type templateJSON struct {
	Decimals []decJSON   `json:"decimals"`
	Coded    []codedJSON `json:"coded"`
}

type decJSON struct {
	Frac   int  `json:"frac"`
	Digits int  `json:"digits"`
	Signed bool `json:"signed,omitempty"`
}

type codedJSON struct {
	CodeBits int   `json:"codeBits"`
	RunBits  []int `json:"runBits,omitempty"`
}

// MarshalJSON writes the template's columns.
func (t *Template) MarshalJSON() ([]byte, error) {
	out := templateJSON{Decimals: []decJSON{}, Coded: []codedJSON{}}
	for _, f := range t.decs {
		out.Decimals = append(out.Decimals, decJSON{int(f.frac), int(f.digits), f.signed})
	}
	for _, f := range t.coded {
		c := codedJSON{CodeBits: int(f.codeBits)}
		for _, b := range f.runBits {
			c.RunBits = append(c.RunBits, int(b))
		}
		out.Coded = append(out.Coded, c)
	}
	return json.Marshal(out)
}

// UnmarshalJSON reads what MarshalJSON writes and refuses, with a
// *TemplateError, a column no build can have written; SetTemplate then
// holds the coded columns to the Dict.
func (t *Template) UnmarshalJSON(data []byte) error {
	var in templateJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if len(in.Decimals) > maxBinaryCols {
		return &TemplateError{maxBinaryCols, fmt.Sprintf("%d binary columns, more than %d", len(in.Decimals), maxBinaryCols)}
	}
	if n := len(in.Decimals) + len(in.Coded); n == 0 || n > maxDictColumns {
		return &TemplateError{0, fmt.Sprintf("%d columns, want 1 to %d", n, maxDictColumns)}
	}
	var nt Template
	for c, f := range in.Decimals {
		if f.Frac < 0 || f.Frac > maxFrac || f.Digits <= f.Frac || f.Digits > maxDecDigits {
			return &TemplateError{c, fmt.Sprintf("a decimal of %d digits with %d after the point", f.Digits, f.Frac)}
		}
		nt.decs = append(nt.decs, decField{frac: uint8(f.Frac), digits: uint8(f.Digits), signed: f.Signed})
	}
	for i, f := range in.Coded {
		c := len(in.Decimals) + i
		if f.CodeBits < 0 || f.CodeBits > 8 || len(f.RunBits) > maxSkeleton/2+1 {
			return &TemplateError{c, fmt.Sprintf("code width %d with %d run widths", f.CodeBits, len(f.RunBits))}
		}
		cf := codedField{codeBits: uint8(f.CodeBits)}
		for _, b := range f.RunBits {
			if b < 1 || b > 64 {
				return &TemplateError{c, fmt.Sprintf("run width %d", b)}
			}
			cf.runBits = append(cf.runBits, uint8(b))
		}
		nt.coded = append(nt.coded, cf)
	}
	nt.layout()
	*t = nt
	return nil
}
