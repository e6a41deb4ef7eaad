package snakes

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestFileStoreFacadeLifecycle(t *testing.T) {
	s := exampleSchema()
	w := s.ClassWorkload(Class{0, 2})
	opt, err := Optimize(w)
	if err != nil {
		t.Fatal(err)
	}
	bytes := make([]int64, s.NumCells())
	for i := range bytes {
		bytes[i] = FrameSize(8)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "facts.db")
	fs, err := opt.CreateFileStore(path, bytes, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for c := 0; c < s.NumCells(); c++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(1))
		if err := PutRecord(fs, c, buf); err != nil {
			t.Fatal(err)
		}
	}
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen and query.
	fs2, err := opt.OpenFileStore(path, bytes, 64, 8, loaded)
	if err != nil {
		t.Fatal(err)
	}
	count, err := sumFloat64s(context.Background(), fs2, Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if count != 16 {
		t.Errorf("count = %v, want 16", count)
	}

	// Re-cluster onto a row-major strategy; data survives.
	rm, err := s.RowMajor(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	migrated, err := rm.MigrateCtx(context.Background(), fs2, filepath.Join(dir, "facts2.db"), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer migrated.Close()
	if err := fs2.Close(); err != nil {
		t.Fatal(err)
	}
	count2, err := sumFloat64s(context.Background(), migrated, Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if count2 != 16 {
		t.Errorf("migrated count = %v, want 16", count2)
	}
}

// TestFileStoreFacadeVerifyDetectsCorruption drives the durability layer
// through the public facade: a store scrubs clean after a build, and a
// single flipped bit on disk is caught by Verify — and located — rather
// than silently flowing into query results.
func TestFileStoreFacadeVerifyDetectsCorruption(t *testing.T) {
	s := exampleSchema()
	st, err := s.RowMajor(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	bytes := make([]int64, s.NumCells())
	for i := range bytes {
		bytes[i] = FrameSize(8)
	}
	path := filepath.Join(t.TempDir(), "facts.db")
	fs, err := st.CreateFileStore(path, bytes, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for c := 0; c < s.NumCells(); c++ {
		binary.LittleEndian.PutUint64(buf, math.Float64bits(float64(c)))
		if err := PutRecord(fs, c, buf); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := fs.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("fresh store reported problems: %v", rep.Problems)
	}
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the data region of page 1.
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	one := make([]byte, 1)
	off := int64(64 + 5)
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 0x01
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fs2, err := st.OpenFileStore(path, bytes, 64, 8, loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	rep2, err := fs2.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if rep2.OK() {
		t.Fatal("flipped bit went undetected")
	}
	if !errors.Is(rep2.Err(), ErrCorruptPage) {
		t.Fatalf("report error %v does not match ErrCorruptPage", rep2.Err())
	}
	found := false
	for _, p := range rep2.Problems {
		if p.Page == 1 && p.Cell >= 0 && len(p.Coords) == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("problems %v do not locate page 1 with cell coordinates", rep2.Problems)
	}
}
