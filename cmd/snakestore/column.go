package main

import (
	"bytes"
	"fmt"
	"strconv"
)

// payloadColumn extracts the idx-th comma-separated payload column of a
// text record as a float64 without allocating. It is the one column
// decoder: the daemon's /query sum and the query subcommand's -sum both go
// through it, so their sums are bit-identical and a short row reads the
// same from either.
func payloadColumn(record []byte, idx int) (float64, error) {
	rest := record
	for col := 0; col < idx; col++ {
		end := bytes.IndexByte(rest, ',')
		if end < 0 {
			return 0, fmt.Errorf("record has %d payload columns, sum asked for %d", col+1, idx)
		}
		rest = rest[end+1:]
	}
	return parseDecimal(rest)
}

// pow10 holds the powers of ten a float64 represents exactly, up to the
// longest fraction the fast path admits.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// parseDecimal parses the field that starts b and ends at the first comma
// (or the end of b). It is strconv.ParseFloat on that field with an exact
// fast path for plain decimals — optional sign, digits, optional fraction,
// at most 19 digits in all and a mantissa of at most 2^53: the mantissa
// and 10^k (k <= 19 < 23) are then both exact float64s, so their IEEE
// quotient is the correctly rounded value, which is what ParseFloat
// returns. Every other spelling (exponents, inf, nan, hex, underscores,
// longer mantissas, the empty field) goes to ParseFloat itself, so accepted
// inputs, rejected inputs and error texts are ParseFloat's.
func parseDecimal(b []byte) (float64, error) {
	i := 0
	neg := len(b) > 0 && b[0] == '-'
	if neg || (len(b) > 0 && b[0] == '+') {
		i = 1
	}
	var mant uint64
	digits := -i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mant = mant*10 + uint64(b[i]-'0')
	}
	digits += i
	frac := 0
	if i < len(b) && b[i] == '.' {
		i++
		frac = -i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			mant = mant*10 + uint64(b[i]-'0')
		}
		frac += i
		digits += frac
	}
	if (i < len(b) && b[i] != ',') || digits == 0 || digits > 19 || mant > 1<<53 {
		if end := bytes.IndexByte(b, ','); end >= 0 {
			b = b[:end]
		}
		return strconv.ParseFloat(string(b), 64)
	}
	f := float64(mant) / pow10[frac]
	if neg {
		f = -f
	}
	return f, nil
}
