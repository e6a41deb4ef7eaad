package rowcodec

import (
	"bytes"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// plainDecimal is the spelling scanDecimal calls plain: an optional sign,
// digits, an optional point and digits, at least one digit.
var plainDecimal = regexp.MustCompile(`^[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)$`)

// bigSum is the oracle: the column of each row's text as math/big reads it
// — a plain decimal exactly, any other spelling at the float64
// strconv.ParseFloat gives it — added up exactly and rounded once. Rows are
// CSV text; err is the first row's error in Column's words.
func bigSum(rows [][]byte, col int) (float64, error) {
	var total big.Rat
	odd := 0.0
	for _, row := range rows {
		if _, err := Column(nil, append([]byte{0}, row...), 0, col); err != nil {
			return 0, err
		}
		text := strings.Split(string(row), ",")[col]
		v, _ := strconv.ParseFloat(text, 64)
		switch {
		case math.IsInf(v, 0) || math.IsNaN(v):
			odd += v
		case plainDecimal.MatchString(text):
			r, _ := new(big.Rat).SetString(text)
			total.Add(&total, r)
		default:
			total.Add(&total, new(big.Rat).SetFloat64(v))
		}
	}
	if odd != 0 {
		return odd, nil
	}
	f, _ := total.Float64()
	return f, nil
}

// encodedSum adds column col of the rows, encoded, in the given order.
func encodedSum(rows [][]byte, order []int, col int) (float64, error) {
	s := NewSum(nil, col)
	for _, i := range order {
		if _, err := s.Add(Encode(nil, nil, rows[i])); err != nil {
			return 0, err
		}
	}
	return s.Total()
}

// checkExactSum holds Sum to the oracle on the rows in their order and
// reversed: the same bits, and a non-finite total is an error naming the
// column. A row Column rejects is the same error, in the first row it hits.
func checkExactSum(t *testing.T, rows [][]byte, col int) {
	t.Helper()
	want, wantErr := bigSum(rows, col)
	order := make([]int, len(rows))
	for i := range order {
		order[i] = i
	}
	for pass := 0; pass < 2; pass++ {
		got, err := encodedSum(rows, order, col)
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("rows %q column %d: err %v, Column says %v", rows, col, err, wantErr)
			}
			return
		case math.IsInf(want, 0) || math.IsNaN(want):
			if wantText := fmt.Sprintf("sum of column %d is %v, not a finite number", col, want); err == nil || err.Error() != wantText {
				t.Fatalf("rows %q column %d: err %v, want %q", rows, col, err, wantText)
			}
		case err != nil || math.Float64bits(got) != math.Float64bits(want):
			t.Fatalf("rows %q column %d: sum %v (%#x), %v; math/big says %v (%#x)", rows, col, got, math.Float64bits(got), err, want, math.Float64bits(want))
		}
		slices.Reverse(order)
	}
}

// randomColumn draws a column text of one of the kinds Sum has a leg for.
func randomColumn(rng *rand.Rand) string {
	digits := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('0' + rng.Intn(10))
		}
		if n > 1 && b[0] == '0' {
			b[0] = '1'
		}
		return string(b)
	}
	sign := []string{"", "", "-"}[rng.Intn(3)]
	switch rng.Intn(10) {
	case 0, 1, 2, 3: // canonical: a binary column
		whole, frac := digits(1+rng.Intn(9)), ""
		if k := rng.Intn(5); k > 0 {
			frac = "." + digits(k)
		}
		return sign + whole + frac
	case 4: // plain but not canonical: the integer leg from the text
		return []string{"+", "", "-"}[rng.Intn(3)] + []string{"0", "00", ""}[rng.Intn(3)] + digits(1+rng.Intn(6)) + []string{".", ".5", ".125", ""}[rng.Intn(4)]
	case 5: // 19 digits, the most a mantissa holds
		return sign + digits(10) + "." + digits(9)
	case 6: // a long plain decimal: the exact rational leg
		return sign + digits(12) + "." + digits(8+rng.Intn(8))
	case 7: // ParseFloat-only spellings
		return sign + []string{"1e3", "2.5E-2", "0x1p-2", "7e300", "1e-400", "3.000000000000000000001e2"}[rng.Intn(6)]
	case 8: // a maximal binary mantissa
		return sign + "9007199254740992"
	default: // a word: ends the binary run, so later columns are text
		return []string{"N", "TRUCK", "", "x1"}[rng.Intn(4)]
	}
}

// TestExactSumMatchesBig is the property test: random rows of four columns
// mixing every leg — canonical, negative, mixed fraction counts, raw rows,
// text tails, 19-digit, long and ParseFloat-only spellings — sum to
// math/big's correctly rounded total in either order, or fail as Column
// fails.
func TestExactSumMatchesBig(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	for trial := 0; trial < 2000; trial++ {
		rows := make([][]byte, 1+rng.Intn(40))
		for i := range rows {
			cols := make([]string, 4)
			for c := range cols {
				cols[c] = randomColumn(rng)
			}
			rows[i] = []byte(strings.Join(cols, ","))
		}
		col := rng.Intn(4)
		// Mostly sum a numeric column: draw again over words in it.
		for i, row := range rows {
			for k := 0; k < 20; k++ {
				if _, err := Column(nil, append([]byte{0}, row...), 0, col); err == nil {
					break
				}
				fields := bytes.Split(row, []byte(","))
				fields[col] = []byte(randomColumn(rng))
				row = bytes.Join(fields, []byte(","))
			}
			rows[i] = row
		}
		checkExactSum(t, rows, col)
	}
}

// TestExactSumCarries: 2^12 maximal mantissas of one sign carry past int64
// and the total is still exact; as many of the other sign bring it back to
// zero.
func TestExactSumCarries(t *testing.T) {
	for _, text := range []string{"9007199254740992", "-9007199254740992", "9999999999999999999", "-9999999999999999.999"} {
		rows := make([][]byte, 1<<12)
		for i := range rows {
			rows[i] = []byte(text)
		}
		checkExactSum(t, rows, 0)
		checkExactSum(t, append(rows, []byte("0.5")), 0) // and a second fraction count
		neg := "-" + text
		if text[0] == '-' {
			neg = text[1:]
		}
		for range 1 << 12 {
			rows = append(rows, []byte(neg))
		}
		if got, err := encodedSum(rows, rand.Perm(len(rows)), 0); err != nil || math.Float64bits(got) != 0 {
			t.Errorf("%s and its negation 2^12 times each: %v, %v", text, got, err)
		}
	}
	s := NewSum(nil, 0)
	for range 1 << 12 {
		s.Add(Encode(nil, nil, "9007199254740992"))
	}
	if got, err := s.Total(); err != nil || got != 0x1p65 {
		t.Errorf("2^12 × 2^53 = %v, %v; want 2^65", got, err)
	}
}

// TestExactSumNonFinite: a column that reads as an infinity or NaN, or a
// total past float64's range, is an error that names the column.
func TestExactSumNonFinite(t *testing.T) {
	for _, tc := range []struct {
		rows []string
		want string
	}{
		{[]string{"1.5,inf"}, "sum of column 1 is +Inf, not a finite number"},
		{[]string{"1.5,-Inf", "2,3"}, "sum of column 1 is -Inf, not a finite number"},
		{[]string{"1.5,nan"}, "sum of column 1 is NaN, not a finite number"},
		{[]string{"1,inf", "1,-inf"}, "sum of column 1 is NaN, not a finite number"},
		{[]string{"1,1e308", "2,1e308"}, "sum of column 1 is +Inf, not a finite number"},
	} {
		s := NewSum(nil, 1)
		for _, row := range tc.rows {
			if _, err := s.Add(Encode(nil, nil, row)); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Total(); err == nil || err.Error() != tc.want {
			t.Errorf("rows %q: %v, want %q", tc.rows, err, tc.want)
		}
	}
}

// TestSumAllocs: the integer legs allocate nothing, and neither does a
// total of one fraction count.
func TestSumAllocs(t *testing.T) {
	recs := [][]byte{Encode(nil, nil, "12345.67,17,0.05,N,comment"), Encode(nil, nil, "+1.25,-3"), Encode(nil, nil, "-0.25,007")}
	var sink float64
	if allocs := testing.AllocsPerRun(1000, func() {
		for col := 0; col < 2; col++ {
			s := NewSum(nil, col)
			for _, rec := range recs {
				s.Add(rec)
			}
			v, _ := s.Total()
			sink += v
		}
	}); allocs != 0 {
		t.Errorf("a sum over binary and plain text columns allocates %v times, want 0", allocs)
	}
	// A frameless packed cell and a marker-framed one, under a template.
	_, _, d := cellDicts(t)
	rows := benchRows(4)
	packed := EncodeCell(d, rows)
	framed := d.AppendMarker(nil)
	for _, r := range rows {
		framed = AppendFramedRow(d, framed, r)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		for col := 0; col < 4; col++ {
			s := NewSum(d, col)
			s.AddCell(packed)
			s.AddCell(framed)
			v, _ := s.Total()
			sink += v
		}
	}); allocs != 0 || packed[0]&1 != 0 || framed[0] != marker {
		t.Errorf("a sum over packed and framed cells allocates %v times, want 0", allocs)
	}
}

var sumSeeds = []string{
	"1.5\n2.25\n-0.75", "12345.67,17\n618024.14,3\n0.01,1", "inf\n1", "nan", "1e308\n1e308", "0.1\n0.2\n0.3",
	"+1.5\n007\n5.\n.5", "1e3,x\n1.5E-2,y", "9999999999999999999\n9999999999999999999", "1234567890123456789012.5\n1",
	"a,b\n1,2", "1,2,3\n4,5", "0x1p-2\n1e-400", "-0\n0", "",
}

// FuzzExactSum: arbitrary rows (one a line) and a column; Sum agrees with
// the math/big oracle and with Column's errors, in either order.
func FuzzExactSum(f *testing.F) {
	for i, s := range sumSeeds {
		f.Add([]byte(s), uint8(i%3))
	}
	f.Fuzz(func(t *testing.T, in []byte, col uint8) {
		var rows [][]byte
		for _, row := range bytes.Split(in, []byte("\n")) {
			rows = append(rows, row)
		}
		checkExactSum(t, rows, int(col%18))
	})
}
