package rowcodec

import (
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// Sum adds up one payload column of encoded rows exactly: /query's sum and
// the query subcommand's -sum. A plain decimal of at most maxDigits digits
// — every binary column, and every text or coded column that spells one — is the
// integer ±mantissa at its fraction count, and the mantissas of each
// fraction count are added in a 128-bit integer, so nothing rounds while
// rows are added and the order they come in cannot change the answer.
// Total rounds the exact sum once, to the nearest float64.
//
// Two rarer legs keep the sum exact too. A longer plain decimal is added
// as the rational its text spells; any other spelling strconv.ParseFloat
// accepts (an exponent, hex, inf, nan) is added as the float64 ParseFloat
// reads, whose value is exact once read. Only these legs allocate, and the
// first coded column added, whose text is rebuilt in buf so it reads exactly
// as it did as text.
type Sum struct {
	col  int
	d    *Dict
	used uint32                // bit k: a value with k fraction digits was added
	lo   [maxDigits + 1]uint64 // per fraction count, the low and high words
	hi   [maxDigits + 1]int64  // of a 128-bit two's-complement mantissa sum
	rat  *big.Rat              // the long plain decimals and ParseFloat's finite values
	odd  float64               // the sum of the infinities and NaNs added
	buf  *[maxColumnText]byte  // a coded column's text; made when first needed
}

// NewSum returns an empty sum of payload column col of rows encoded under
// d (nil: no dictionary).
func NewSum(d *Dict, col int) Sum { return Sum{col: col, d: d} }

// Add adds column col of every row of the stored record rec, an encoded
// row or a packed block, and returns how many rows that was (Rows). Its
// errors are Column's: a short row, a column ParseFloat rejects, bytes no
// encoder wrote.
func (s *Sum) Add(rec []byte) (rows int, err error) {
	if s.d.packed(rec) {
		return s.addPacked(rec)
	}
	mant, meta, rest, e, at, err := locate(s.d, rec, s.col)
	switch {
	case err != nil:
		return 0, err
	case e != nil:
		if s.buf == nil {
			s.buf = new([maxColumnText]byte)
		}
		text, _, err := expand(s.buf[:0], e, rec, at)
		if err != nil {
			return 0, err
		}
		return 1, s.addText(text)
	case rest != nil:
		return 1, s.addText(rest)
	}
	s.add(mant, int(meta>>3&maxFrac), meta&0x80 != 0)
	return 1, nil
}

// add adds ±mant / 10^frac.
func (s *Sum) add(mant uint64, frac int, neg bool) {
	var c uint64
	if neg {
		s.lo[frac], c = bits.Sub64(s.lo[frac], mant, 0)
		s.hi[frac] -= int64(c)
	} else {
		s.lo[frac], c = bits.Add64(s.lo[frac], mant, 0)
		s.hi[frac] += int64(c)
	}
	s.used |= 1 << frac
}

// addText adds the text column that starts b.
func (s *Sum) addText(b []byte) error {
	mant, frac, digits, neg, plain := scanDecimal(b)
	if plain && digits <= maxDigits {
		s.add(mant, frac, neg)
		return nil
	}
	f := field(b)
	v, err := strconv.ParseFloat(string(f), 64)
	if err != nil {
		return err
	}
	if math.IsInf(v, 0) || math.IsNaN(v) {
		s.odd += v
		return nil
	}
	if s.rat == nil {
		s.rat = new(big.Rat)
	}
	var r big.Rat
	if plain {
		r.SetString(string(f)) // a plain decimal: always valid, and exact
	} else {
		r.SetFloat64(v)
	}
	s.rat.Add(s.rat, &r)
	return nil
}

// Total returns the exact sum rounded to the nearest float64, or an error
// naming the column when that is not a finite number: an infinity or NaN
// was added, or the sum is beyond float64's range.
func (s *Sum) Total() (float64, error) {
	f := s.total()
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return f, fmt.Errorf("sum of column %d is %v, not a finite number", s.col, f)
	}
	return f, nil
}

func (s *Sum) total() float64 {
	if s.odd != 0 { // an infinity, or NaN
		return s.odd
	}
	if s.used == 0 && s.rat == nil {
		return 0
	}
	if s.used&(s.used-1) == 0 && s.rat == nil {
		// One fraction count k: with |sum| <= 2^53 both the sum and 10^k
		// are exact float64s, so their IEEE quotient is the correctly
		// rounded value.
		k := bits.TrailingZeros32(s.used)
		switch lo, hi := s.lo[k], s.hi[k]; {
		case hi == 0 && lo <= maxMantissa:
			return float64(lo) / pow10[k]
		case hi == -1 && lo != 0 && -lo <= maxMantissa:
			return -(float64(-lo) / pow10[k])
		}
	}
	var r big.Rat
	if s.rat != nil {
		r.Set(s.rat)
	}
	for k := range s.lo {
		if s.used&(1<<k) == 0 {
			continue
		}
		num := new(big.Int).Lsh(big.NewInt(s.hi[k]), 64)
		num.Add(num, new(big.Int).SetUint64(s.lo[k]))
		r.Add(&r, new(big.Rat).SetFrac(num, new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(k)), nil)))
	}
	f, _ := r.Float64()
	return f
}
