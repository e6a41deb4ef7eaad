package storage

import (
	"encoding/binary"
	"errors"
	"os"
	"testing"
)

func TestVerifyCleanStore(t *testing.T) {
	fs, values, _, _ := buildFileStore(t, 4)
	defer fs.Close()
	rep, err := fs.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("clean store reported problems: %v", rep.Problems)
	}
	if rep.Pages != fs.Layout().TotalPages() {
		t.Errorf("scanned %d pages, want %d", rep.Pages, fs.Layout().TotalPages())
	}
	var records int64
	for _, vs := range values {
		records += int64(len(vs))
	}
	if rep.Records != records {
		t.Errorf("walked %d records, want %d", rep.Records, records)
	}
	if rep.Err() != nil {
		t.Errorf("clean report Err() = %v", rep.Err())
	}
}

// TestVerifyDetectsEveryDataByteFlip is the acceptance-criteria scrub: a
// byte flipped anywhere in any page's data region must be detected and
// attributed to the right page (and, where the page holds data, a cell).
func TestVerifyDetectsEveryDataByteFlip(t *testing.T) {
	fs, _, path, bytes := buildFileStore(t, 4)
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	o := fs.Layout().Order()
	usable := int64(64 - PageTrailerSize)
	totalPages := fs.Layout().TotalPages()

	flip := func(off int64, bit byte) byte {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		one := make([]byte, 1)
		if _, err := f.ReadAt(one, off); err != nil {
			t.Fatal(err)
		}
		orig := one[0]
		if _, err := f.WriteAt([]byte{orig ^ bit}, off); err != nil {
			t.Fatal(err)
		}
		return orig
	}
	restore := func(off int64, b byte) {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte{b}, off); err != nil {
			t.Fatal(err)
		}
	}

	for page := int64(0); page < totalPages; page++ {
		for po := int64(0); po < usable; po++ {
			off := page*64 + po
			orig := flip(off, 0x10)
			fs2, err := OpenFileStore(path, o, bytes, 64, 4, loaded)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := fs2.Verify()
			if err != nil {
				t.Fatalf("offset %d: scrub aborted: %v", off, err)
			}
			if rep.OK() {
				t.Fatalf("flip at file offset %d (page %d) undetected", off, page)
			}
			found := false
			for _, p := range rep.Problems {
				if p.Page == page {
					found = true
					if p.Cell >= 0 && p.Coords == nil {
						t.Fatalf("offset %d: problem names cell %d without coords", off, p.Cell)
					}
				}
			}
			if !found {
				t.Fatalf("offset %d: problems %v do not name page %d", off, rep.Problems, page)
			}
			if !errors.Is(rep.Err(), ErrCorruptPage) {
				t.Fatalf("offset %d: report error %v does not match ErrCorruptPage", off, rep.Err())
			}
			fs2.Close()
			restore(off, orig)
		}
	}
}

func TestVerifyReportsFramingDamage(t *testing.T) {
	fs, _, _, _ := buildFileStore(t, 8)
	defer fs.Close()
	// Overwrite the first cell's length prefix with a giant value through
	// the pool, so checksums stay valid but the framing is broken.
	pos := 0
	for fs.dir[pos].fill == 0 {
		pos++
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], 1<<30)
	if err := fs.pool.WriteAt(hdr[:], fs.dir[pos].start); err != nil {
		t.Fatal(err)
	}
	rep, err := fs.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("broken framing undetected")
	}
	cell := fs.layout.order.CellAt(pos)
	found := false
	for _, p := range rep.Problems {
		if p.Cell == cell {
			found = true
		}
	}
	if !found {
		t.Fatalf("problems %v do not name cell %d", rep.Problems, cell)
	}
}

func TestOpenFileStoreValidatesFillAndGeometry(t *testing.T) {
	fs, _, path, bytes := buildFileStore(t, 4)
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	o := fs.Layout().Order()

	// Fill beyond a cell's reserved range is rejected.
	bad := make([]int64, len(loaded))
	copy(bad, loaded)
	bad[0] = bytes[0] + 1
	if _, err := OpenFileStore(path, o, bytes, 64, 4, bad); err == nil {
		t.Error("fill beyond reserved range should fail")
	}
	bad[0] = -1
	if _, err := OpenFileStore(path, o, bytes, 64, 4, bad); err == nil {
		t.Error("negative fill should fail")
	}

	// A truncated file no longer matches the layout's page count.
	if err := os.Truncate(path, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path, o, bytes, 64, 4, loaded); err == nil {
		t.Error("truncated file should fail geometry validation")
	}
}
