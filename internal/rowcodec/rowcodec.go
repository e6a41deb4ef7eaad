// Package rowcodec is the one place that knows what a stored payload looks
// like. snakestore's build and POST /ingest encode the CSV text of a row,
// /query and the query subcommand sum its columns exactly (Sum); the store,
// the WAL and the repair sidecar carry the encoded bytes as opaque records.
//
//	row   = hdr col* (tail | coded)
//	hdr   = 1 byte: bits 0-3 the number n of binary columns, bit 4 set when
//	        text follows them, bit 5 when coded columns follow them (never
//	        both); hdr 0 is a raw row, the tail is its whole text
//	col   = meta mantissa: meta bits 0-2 the mantissa's width w in bytes,
//	        bits 3-6 the fraction digits, bit 7 the sign; then w bytes,
//	        little-endian
//	tail  = the rest of the row's text, after the comma that follows the
//	        last binary column
//	coded = one or more columns, each a code byte c: c < 255 is entry c of
//	        the column's Dict entry list followed by its digit runs, each in
//	        runWidth[L] bytes little-endian (L, the run's length, comes from
//	        the entry); c = 255 is the column's text verbatim, through its
//	        comma, or to the end of the row for the last column
//
// The binary columns are the longest leading run (at most 15) of canonical
// decimals: an optional '-', digits without a leading zero, an optional
// '.' with at least one digit after it — spellings the mantissa, sign and
// fraction count reproduce byte for byte and parseDecimal's fast path
// evaluates as float64(mantissa) / 10^fraction, the expression Column
// evaluates. A column's width is a function of the length of its text alone
// (the bytes 10^L − 1 needs), never of its digits.
//
// The columns after them are coded against a Dict when that is shorter than
// their text, and kept as text otherwise; with no Dict they are always text,
// so a row encoded without one is a row of the format before Dicts existed.
// A column's coded size is a function of its skeleton (its text with every
// digit run replaced by the run's length) or of its length when the Dict
// does not hold its skeleton, and a row the encoding would lengthen by more
// than a byte is stored raw: two rows whose columns have the same lengths,
// the same canonical run and the same skeletons (or misses) encode to the
// same length, which is what lets a cell be rewritten in place.
//
// A cell whose rows all fit the Dict's row Template is stored instead as
// one packed block, every row the same width W:
//
//	block    = tag row*         (len(block) − 1) / W rows
//	tag      = 0x40             header bit 6, which no row above sets
//	row      = W bytes: the fields below, one after the other, least
//	           significant bit first, zero bits to the byte boundary
//	decimal  = [sign] mantissa  one per binary column; the sign bit only
//	           when the template's column is signed, the mantissa in
//	           ⌈D·log₂10⌉ bits for the column's D digits
//	coded    = code run*        one per coded column; the code in
//	           ⌈log₂ entries⌉ bits, then one slot per digit run, slot k
//	           ⌈L·log₂10⌉ bits for the longest run k of the column's
//	           entries (a skeleton with fewer runs leaves the rest 0)
//	template = per binary column its fraction count, its digits D and
//	           whether it is signed; per coded column its code width and
//	           run widths; W is the bytes all the fields take, at least 1
//
// A row fits when it has the template's columns: binary columns that are
// canonical decimals with the template's fraction counts, no more digits
// and a sign only where the template has one, then coded columns whose
// skeletons the Dict holds, and nothing after them. The widths follow text
// length and skeletons, as the framed sizes do, so a rewrite of the same
// shape packs into the same W bytes. build learns the template in the scan
// that learns the Dict (Learn only widens it, so a row it said fits packs
// under the final template) and packs a cell when all its rows fit and the
// block is no longer than the framed rows; every other cell keeps framed
// rows. Decode, Column, Sum and Rows read both forms; the store frames a
// block as one record.
package rowcodec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
)

const (
	maxBinaryCols = 15   // hdr's low nibble
	hdrTail       = 0x10 // text follows the binary columns
	hdrCoded      = 0x20 // coded columns follow the binary columns
	maxFrac       = 15   // meta's four fraction bits
	maxDigits     = 19   // parseDecimal's fast path: what a uint64 mantissa holds
	maxMantissa   = 1 << 53
)

// mantissaWidth[L] is the bytes 10^L − 1 needs, capped at the 7 that hold
// 2^53; a canonical column is at most sign + 19 digits + point long.
var mantissaWidth = [...]uint8{0, 1, 1, 2, 2, 3, 3, 3, 4, 4, 5, 5, 5, 6, 6, 7, 7, 7, 7, 7, 7, 7}

// ErrMalformed marks bytes no encoder wrote.
var ErrMalformed = errors.New("malformed encoded row")

// text is a row as build (bytes of a CSV line) or /ingest (a JSON string)
// holds it.
type text interface{ ~string | ~[]byte }

// scanCanonical reads the column that starts t and ends at the first comma
// or the end of t, and reports whether it is a canonical decimal; end is
// then the length of its text.
func scanCanonical[T text](t T) (mant uint64, meta byte, end int, ok bool) {
	i := 0
	if len(t) > 0 && t[0] == '-' {
		meta = 0x80
		i = 1
	}
	first := i
	for ; i < len(t) && t[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(t[i]-'0')
	}
	digits := i - first
	if digits == 0 || (digits > 1 && t[first] == '0') {
		return 0, 0, 0, false
	}
	frac := 0
	if i < len(t) && t[i] == '.' {
		i++
		point := i
		for ; i < len(t) && t[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(t[i]-'0')
		}
		if frac = i - point; frac == 0 {
			return 0, 0, 0, false
		}
	}
	if (i < len(t) && t[i] != ',') || digits+frac > maxDigits || frac > maxFrac || mant > maxMantissa {
		return 0, 0, 0, false
	}
	return mant, meta | byte(frac)<<3 | mantissaWidth[i], i, true
}

// encodedLen is the encoded length of row t under d, and its length with
// no dictionary; learn admits the tail's skeletons into d first. With sh,
// it also records the row's shape for the row template.
func encodedLen[T text](d *Dict, t T, learn bool, sh *rowShape) (size, plain int) {
	size, n, pos := 1, 0, 0
	for n < maxBinaryCols {
		_, meta, end, ok := scanCanonical(t[pos:])
		if !ok {
			break
		}
		if sh != nil {
			sh.meta[n], sh.digits[n] = meta, uint8(end-int(meta>>7)-min(int(meta>>3&maxFrac), 1))
		}
		size += 1 + int(meta&7)
		n++
		if pos += end; pos == len(t) {
			pos = -1 // the row ends with this column
			break
		}
		pos++
	}
	if sh != nil {
		sh.n = n
	}
	raw := len(t) + 1
	if pos < 0 {
		return min(size, raw), min(size, raw)
	}
	plain = raw
	if n > 0 {
		plain = min(size+len(t)-pos, raw)
	}
	if d != nil {
		if _, coded := codedTail(d, nil, t, pos, n, false, learn, sh); coded < len(t)-pos {
			return min(size+coded, raw), plain
		}
	}
	return plain, plain
}

// Encode appends the encoded form of the row t to dst, coding its tail
// against d (nil: no dictionary). It allocates only when dst must grow.
func Encode[T text](d *Dict, dst []byte, t T) []byte {
	base := len(dst)
	dst = append(dst, 0)
	n, pos := 0, 0 // binary columns written; where the next column starts in t
	for n < maxBinaryCols {
		mant, meta, end, ok := scanCanonical(t[pos:])
		if !ok {
			break
		}
		dst = append(dst, meta)
		for w := meta & 7; w > 0; w-- {
			dst = append(dst, byte(mant))
			mant >>= 8
		}
		n++
		if pos += end; pos == len(t) {
			pos = -1 // the row ends with this column
			break
		}
		pos++
	}
	dst[base] = byte(n)
	coded := false
	if pos >= 0 {
		if d != nil {
			mark := len(dst)
			var size int
			dst, size = codedTail(d, dst, t, pos, n, true, false, nil)
			if coded = size < len(t)-pos; !coded {
				dst = dst[:mark] // no shorter than the text
			}
		}
		switch {
		case coded:
			dst[base] |= hdrCoded
		case n > 0:
			dst[base] |= hdrTail
			dst = append(dst, t[pos:]...)
		}
	}
	if (n == 0 && !coded) || len(dst)-base > len(t)+1 {
		dst = append(dst[:base], 0)
		dst = append(dst, t...)
	}
	return dst
}

// EncodedLen is len(Encode(d, nil, t)) without writing anything.
func EncodedLen[T text](d *Dict, t T) int {
	size, _ := encodedLen(d, t, false, nil)
	return size
}

// binaryColumn reads the binary column at rec[p:] and returns where the
// next one starts.
func binaryColumn(rec []byte, p int) (mant uint64, meta byte, next int, err error) {
	if p >= len(rec) {
		return 0, 0, 0, ErrMalformed
	}
	meta = rec[p]
	next = p + 1 + int(meta&7)
	if next > len(rec) {
		return 0, 0, 0, ErrMalformed
	}
	for k := next - 1; k > p; k-- {
		mant = mant<<8 | uint64(rec[k])
	}
	return mant, meta, next, nil
}

// Decode appends the text of a stored record to dst: for an encoded row,
// the exact bytes Encode was given, with the same d; for a packed block,
// the exact rows Pack was given, joined by '\n'.
func Decode(d *Dict, dst, rec []byte) ([]byte, error) {
	if d.packed(rec) {
		return d.decodePacked(dst, rec)
	}
	if len(rec) == 0 || rec[0]&^(hdrTail|hdrCoded|maxBinaryCols) != 0 || rec[0]&(hdrTail|hdrCoded) == hdrTail|hdrCoded || rec[0] == hdrTail {
		return dst, ErrMalformed
	}
	n, p := int(rec[0]&maxBinaryCols), 1
	for c := 0; c < n; c++ {
		mant, meta, next, err := binaryColumn(rec, p)
		if err != nil {
			return dst, err
		}
		p = next
		if c > 0 {
			dst = append(dst, ',')
		}
		dst = appendDecimal(dst, mant, meta>>3&maxFrac, meta&0x80 != 0)
	}
	switch {
	case rec[0]&hdrCoded != 0:
		return d.decodeCoded(dst, rec, p, n)
	case rec[0]&hdrTail != 0:
		dst = append(dst, ',')
		fallthrough
	case n == 0:
		dst = append(dst, rec[p:]...)
	case p != len(rec):
		return dst, ErrMalformed
	}
	return dst, nil
}

// appendDecimal appends the canonical spelling of ±mant / 10^frac.
func appendDecimal(dst []byte, mant uint64, frac uint8, neg bool) []byte {
	if neg {
		dst = append(dst, '-')
	}
	var buf [20]byte
	digits := strconv.AppendUint(buf[:0], mant, 10)
	if frac == 0 {
		return append(dst, digits...)
	}
	// The integer part is what is left of the last frac digits, "0" when
	// the mantissa has no more than those.
	whole := len(digits) - int(frac)
	if whole <= 0 {
		dst = append(dst, '0')
	} else {
		dst = append(dst, digits[:whole]...)
	}
	dst = append(dst, '.')
	for ; whole < 0; whole++ {
		dst = append(dst, '0')
	}
	return append(dst, digits[whole:]...)
}

// Column extracts the idx-th payload column of row r of a stored record as
// a float64 without allocating: the value one column reads as on its own.
// An encoded row is one row, r = 0; a packed block holds Rows(d, rec).
// A binary column is float64(mantissa) / 10^fraction, the value
// parseDecimal gives the column's text, to the bit; any other column is
// read from the row's text by parseDecimal — a coded column from its text
// rebuilt under d — so a short row or a non-numeric column reads the same
// as it did as text. Sums do not add these values up: they go through
// Sum, which adds the decimals exactly.
func Column(d *Dict, rec []byte, r, idx int) (float64, error) {
	if d.packed(rec) {
		return d.packedColumn(rec, r, idx)
	}
	if r != 0 {
		return 0, fmt.Errorf("row %d of a record of 1 row", r)
	}
	mant, meta, rest, e, at, err := locate(d, rec, idx)
	switch {
	case err != nil:
		return 0, err
	case e != nil:
		return codedDecimal(e, rec, at)
	case rest != nil:
		return parseDecimal(rest)
	}
	f := float64(mant) / pow10[meta>>3&maxFrac]
	if meta&0x80 != 0 {
		f = -f
	}
	return f, nil
}

// codedDecimal is parseDecimal on the text of a coded column: entry e, its
// runs at rec[at:].
func codedDecimal(e *dictEntry, rec []byte, at int) (float64, error) {
	var buf [maxColumnText]byte
	text, _, err := expand(buf[:0], e, rec, at)
	if err != nil {
		return 0, err
	}
	return parseDecimal(text)
}

// locate finds payload column idx of an encoded row without allocating. A
// binary column comes back as its mantissa and meta with a nil rest and e;
// a coded column as its entry e and the offset at of its digit runs in rec;
// any other column as rest, the row's text from the column's first byte on
// (never nil), for parseDecimal or Sum to read up to the next comma. The
// mantissa is one masked little-endian 8-byte load when the row has 8 bytes
// past the meta, the byte loop otherwise.
func locate(d *Dict, rec []byte, idx int) (mant uint64, meta byte, rest []byte, e *dictEntry, at int, err error) {
	if len(rec) == 0 {
		return 0, 0, nil, nil, 0, ErrMalformed
	}
	n, p := int(rec[0]&maxBinaryCols), 1
	for c := 0; c < min(n, idx); c++ {
		if p >= len(rec) {
			return 0, 0, nil, nil, 0, ErrMalformed
		}
		p += 1 + int(rec[p]&7)
	}
	if idx < n {
		if p+9 <= len(rec) {
			meta = rec[p]
			mant = binary.LittleEndian.Uint64(rec[p+1:]) & (1<<(8*(meta&7)) - 1)
			return mant, meta, nil, nil, 0, nil
		}
		mant, meta, _, err = binaryColumn(rec, p)
		return mant, meta, nil, nil, 0, err
	}
	if p > len(rec) {
		return 0, 0, nil, nil, 0, ErrMalformed
	}
	if rec[0]&hdrCoded != 0 {
		rest, e, at, err = d.codedColumn(rec, p, n, idx)
		return 0, 0, rest, e, at, err
	}
	if n > 0 && rec[0]&hdrTail == 0 {
		return 0, 0, nil, nil, 0, shortRow(n, idx)
	}
	rest = rec[p:]
	for col := n; col < idx; col++ {
		end := bytes.IndexByte(rest, ',')
		if end < 0 {
			return 0, 0, nil, nil, 0, shortRow(col+1, idx)
		}
		rest = rest[end+1:]
	}
	return 0, 0, rest, nil, 0, nil
}

func shortRow(columns, idx int) error {
	return fmt.Errorf("record has %d payload columns, sum asked for %d", columns, idx)
}

// pow10 holds the powers of ten a float64 represents exactly, up to the
// longest fraction a plain decimal of maxDigits digits has.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// scanDecimal reads the field that starts b and ends at the first comma
// (or the end of b). plain reports a plain decimal: an optional sign,
// digits, an optional '.' and digits, at least one digit in all; digits
// counts them, and when there are at most maxDigits of them the field is
// exactly ±mant / 10^frac.
func scanDecimal(b []byte) (mant uint64, frac, digits int, neg, plain bool) {
	i := 0
	neg = len(b) > 0 && b[0] == '-'
	if neg || (len(b) > 0 && b[0] == '+') {
		i = 1
	}
	first := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	digits = i - first
	if i < len(b) && b[i] == '.' {
		i++
		point := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		frac = i - point
		digits += frac
	}
	return mant, frac, digits, neg, digits > 0 && (i == len(b) || b[i] == ',')
}

// field is b up to its first comma.
func field(b []byte) []byte {
	if end := bytes.IndexByte(b, ','); end >= 0 {
		return b[:end]
	}
	return b
}

// parseDecimal parses the field that starts b and ends at the first comma
// (or the end of b). It is strconv.ParseFloat on that field with an exact
// fast path for plain decimals of at most 19 digits and a mantissa of at
// most 2^53: the mantissa and 10^k (k <= 19 < 23) are then both exact
// float64s, so their IEEE quotient is the correctly rounded value, which is
// what ParseFloat returns. Every other spelling (exponents, inf, nan, hex,
// underscores, longer mantissas, the empty field) goes to ParseFloat
// itself, so accepted inputs, rejected inputs and error texts are
// ParseFloat's.
func parseDecimal(b []byte) (float64, error) {
	mant, frac, digits, neg, plain := scanDecimal(b)
	if !plain || digits > maxDigits || mant > maxMantissa {
		return strconv.ParseFloat(string(field(b)), 64)
	}
	f := float64(mant) / pow10[frac]
	if neg {
		f = -f
	}
	return f, nil
}
