package storage

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

func TestChecksumFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.db")
	pf, err := CreatePageFile(path, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	cf, err := NewChecksumFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	if cf.PageSize() != 64-PageTrailerSize {
		t.Fatalf("PageSize = %d, want %d", cf.PageSize(), 64-PageTrailerSize)
	}
	data := make([]byte, cf.PageSize())
	for i := range data {
		data[i] = byte(i + 1)
	}
	if err := cf.WritePage(1, data); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, cf.PageSize())
	if err := cf.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("byte %d: got %d want %d", i, got[i], data[i])
		}
	}
	// A never-written page reads back as zeros, not as corruption.
	if err := cf.ReadPage(2, got); err != nil {
		t.Fatalf("zero page should verify: %v", err)
	}
	for i := range got {
		if got[i] != 0 {
			t.Fatal("zero page not zero")
		}
	}
}

func TestChecksumFileDetectsDamage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.db")
	pf, err := CreatePageFile(path, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	cf, err := NewChecksumFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, cf.PageSize())
	for i := range data {
		data[i] = 0x5A
	}
	if err := cf.WritePage(0, data); err != nil {
		t.Fatal(err)
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	// Flip one bit at every byte of the physical page: data-region flips
	// must fail the CRC, trailer flips must fail magic or CRC.
	for off := 0; off < 64; off++ {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		one := make([]byte, 1)
		if _, err := f.ReadAt(one, int64(off)); err != nil {
			t.Fatal(err)
		}
		orig := one[0]
		one[0] ^= 0x04
		if _, err := f.WriteAt(one, int64(off)); err != nil {
			t.Fatal(err)
		}
		f.Close()

		pf2, err := OpenPageFile(path, 64)
		if err != nil {
			t.Fatal(err)
		}
		cf2, err := NewChecksumFile(pf2)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, cf2.PageSize())
		err = cf2.ReadPage(0, buf)
		if !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("flip at byte %d: err = %v, want ErrCorruptPage", off, err)
		}
		var cpe *CorruptPageError
		if !errors.As(err, &cpe) || cpe.Page != 0 {
			t.Fatalf("flip at byte %d: error does not carry page 0: %v", off, err)
		}
		pf2.Close()

		// Restore the byte for the next round.
		f, err = os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{orig}, int64(off)); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
}

func TestChecksumFilePageTooSmall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tiny.db")
	pf, err := CreatePageFile(path, PageTrailerSize, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if _, err := NewChecksumFile(pf); err == nil {
		t.Error("trailer-sized pages should be rejected")
	}
}

// TestChecksumFileReadPagesSpan: one ReadPages call fills bufs of one page
// or several with consecutive verified pages, reports the first damaged
// page of a span as its CorruptPageError, and refuses a span longer than
// MaxSpanPages or a buf that is not whole pages.
func TestChecksumFileReadPagesSpan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "span.db")
	pf, err := CreatePageFile(path, 64, 5)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	cf, err := NewChecksumFile(pf)
	if err != nil {
		t.Fatal(err)
	}
	u := cf.PageSize()
	for p := int64(0); p < 4; p++ {
		if err := cf.WritePage(p, bytes.Repeat([]byte{byte(p + 1)}, u)); err != nil {
			t.Fatal(err)
		}
	}
	two, one := make([]byte, 2*u), make([]byte, u)
	if err := cf.ReadPages(1, two, one); err != nil {
		t.Fatal(err)
	}
	for i, b := range append(two, one...) {
		if want := byte(2 + i/u); b != want {
			t.Fatalf("byte %d of the span = %d, want %d", i, b, want)
		}
	}

	// Damage page 2 on disk: a span over it fails there, naming it.
	raw := make([]byte, 64)
	if err := pf.ReadPages(2, raw); err != nil {
		t.Fatal(err)
	}
	raw[5] ^= 0x10
	if err := pf.WritePage(2, raw); err != nil {
		t.Fatal(err)
	}
	var cpe *CorruptPageError
	if err := cf.ReadPages(0, make([]byte, 4*u)); !errors.As(err, &cpe) || cpe.Page != 2 {
		t.Fatalf("span over damaged page 2: err = %v, want its CorruptPageError", err)
	}

	if err := cf.ReadPages(0, make([]byte, (MaxSpanPages+1)*u)); err == nil {
		t.Error("a span longer than MaxSpanPages should fail")
	}
	if err := cf.ReadPages(0, make([]byte, u+1)); err == nil {
		t.Error("a buf that is not whole pages should fail")
	}
}
