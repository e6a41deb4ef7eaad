package rowcodec

import (
	"math/bits"
	"testing"
)

// The codec's contract — lossless, shape-sized, column for column equal to
// the text decoder, allocation-free, fuzzed — is tested through the
// exported functions beside their caller, in cmd/snakestore/rowcodec_test.go.
// Here is only what needs the package's internals.

// TestMantissaWidth: the width table is the bytes 10^L − 1 needs, capped at
// 2^53's 7.
func TestMantissaWidth(t *testing.T) {
	pow := uint64(1)
	for L := 1; L < len(mantissaWidth); L++ {
		need := 7
		if L <= maxDigits {
			pow *= 10
			need = min(7, (bits.Len64(pow-1)+7)/8)
		}
		if int(mantissaWidth[L]) != need {
			t.Errorf("mantissaWidth[%d] = %d, want %d", L, mantissaWidth[L], need)
		}
	}
}

// BenchmarkSumColumn prices the codec's per-record work on the benchmark's
// row shape: the text decoder and Column, which round every value, against
// Sum, which adds the mantissa; encoding and sizing without and with a
// dictionary.
func BenchmarkSumColumn(b *testing.B) {
	row := []byte("12345.67,17,0.05,0.02,N,O,TRUCK,lineitem 000000042 v0000 carefully final deposits")
	enc := Encode(nil, nil, row)
	var sink float64
	b.Run("text", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, _ := parseDecimal(row)
			sink += v
		}
	})
	b.Run("encoded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			v, _ := Column(nil, enc, 0, 0)
			sink += v
		}
	})
	b.Run("sum", func(b *testing.B) {
		s := NewSum(nil, 0)
		for i := 0; i < b.N; i++ {
			s.Add(enc)
		}
		v, _ := s.Total()
		sink += v
	})
	b.Run("encode", func(b *testing.B) {
		buf := make([]byte, 0, len(row)+1)
		for i := 0; i < b.N; i++ {
			buf = Encode(nil, buf[:0], row)
		}
	})
	b.Run("encodedLen", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			n += EncodedLen(nil, row)
		}
	})
	// Under a dictionary: build's pass 1 (Learn) and pass 2 (Encode), and
	// the sum of a coded column.
	d := NewDict()
	d.Learn(row)
	b.Run("learn", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			size, _, _ := d.Learn(row)
			n += size
		}
	})
	b.Run("encodeDict", func(b *testing.B) {
		buf := make([]byte, 0, len(row)+1)
		for i := 0; i < b.N; i++ {
			buf = Encode(d, buf[:0], row)
		}
	})
	b.Run("sumCoded", func(b *testing.B) {
		rec := []byte("12345.67,17,N,+0.75,lineitem 000000042 v0000")
		dd := NewDict()
		dd.Learn(rec)
		enc := Encode(dd, nil, rec)
		s := NewSum(dd, 3)
		for i := 0; i < b.N; i++ {
			s.Add(enc)
		}
	})
	_ = sink
}
