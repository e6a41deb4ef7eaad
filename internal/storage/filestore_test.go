package storage

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/linear"
	"repro/internal/rowcodec"
)

func TestPageFileBasics(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	pf, err := CreatePageFile(path, 128, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	if pf.PageSize() != 128 || pf.Pages() != 4 {
		t.Fatalf("geometry %d×%d", pf.PageSize(), pf.Pages())
	}
	buf := make([]byte, 128)
	for i := range buf {
		buf[i] = 0xAB
	}
	if err := pf.WritePage(2, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 128)
	if err := pf.ReadPage(2, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0xAB || got[127] != 0xAB {
		t.Error("page contents lost")
	}
	if err := pf.ReadPage(9, got); err == nil {
		t.Error("out-of-range read should fail")
	}
	if err := pf.WritePage(-1, buf); err == nil {
		t.Error("negative page should fail")
	}
	if err := pf.ReadPage(0, make([]byte, 64)); err == nil {
		t.Error("short buffer should fail")
	}
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestPageFileReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	pf, err := CreatePageFile(path, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	buf[0] = 7
	if err := pf.WritePage(1, buf); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	pf2, err := OpenPageFile(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer pf2.Close()
	got := make([]byte, 64)
	if err := pf2.ReadPage(1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Error("contents lost across reopen")
	}
	if _, err := OpenPageFile(path, 60); err == nil {
		t.Error("non-multiple page size should fail")
	}
	if _, err := OpenPageFile(filepath.Join(t.TempDir(), "missing"), 64); err == nil {
		t.Error("missing file should fail")
	}
}

func TestBufferPoolLRUAndWriteBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pool.db")
	pf, err := CreatePageFile(path, 16, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	bp, err := NewBufferPool(pf, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Write to three pages through a 2-frame pool: forces an eviction with
	// write-back.
	for page := int64(0); page < 3; page++ {
		if err := bp.WriteAt([]byte{byte(page + 1)}, page*16); err != nil {
			t.Fatal(err)
		}
	}
	st := bp.Stats()
	if st.Misses != 3 {
		t.Errorf("misses = %d, want 3", st.Misses)
	}
	if st.Evictions != 1 || st.Writes != 1 {
		t.Errorf("evictions/writes = %d/%d, want 1/1", st.Evictions, st.Writes)
	}
	// Page 0 was evicted and written back: the file has its data.
	raw := make([]byte, 16)
	if err := pf.ReadPage(0, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != 1 {
		t.Error("write-back lost page 0")
	}
	// Re-reading a cached page is a hit.
	one := make([]byte, 1)
	if err := bp.ReadAt(one, 2*16); err != nil {
		t.Fatal(err)
	}
	if got := bp.Stats().Hits; got != 1 {
		t.Errorf("hits = %d, want 1", got)
	}
	// Flush persists remaining dirty frames.
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := pf.ReadPage(2, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != 3 {
		t.Error("flush lost page 2")
	}
	bp.ResetStats()
	if bp.Stats() != (PoolStats{}) {
		t.Error("ResetStats did not clear")
	}
}

func TestBufferPoolCrossPageIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cross.db")
	pf, err := CreatePageFile(path, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	bp, err := NewBufferPool(pf, 4)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello across pages!")
	if err := bp.WriteAt(data, 5); err != nil { // spans pages 0..2
		t.Fatal(err)
	}
	got := make([]byte, len(data))
	if err := bp.ReadAt(got, 5); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(data) {
		t.Errorf("round trip %q", got)
	}
	if _, err := NewBufferPool(pf, 0); err == nil {
		t.Error("zero-capacity pool should fail")
	}
}

// buildFileStore is buildStore with a chosen pool size, returning what a
// reopen needs.
func buildFileStore(t *testing.T, frames int) (*FileStore, [][]float64, string, []int64) {
	t.Helper()
	o := rowMajor4x4(t)
	values := make([][]float64, o.Len())
	bytes := make([]int64, o.Len())
	for c := range values {
		n := 1 + c%3
		values[c] = make([]float64, n)
		for i := range values[c] {
			values[c][i] = float64(c*10 + i)
		}
		bytes[c] = int64(n) * rowcodec.FrameSize(8)
	}
	path := filepath.Join(t.TempDir(), "store.db")
	fs, err := CreateFileStore(path, o, bytes, 64, frames)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	for c, vs := range values {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if err := rowcodec.PutRecord(fs, c, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return fs, values, path, bytes
}

func TestFileStoreSumMatchesMemoryStore(t *testing.T) {
	fs, values, _, _ := buildFileStore(t, 4)
	defer fs.Close()
	region := linear.Region{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 3}}
	got, _, err := sumRegion(context.Background(), fs, region, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	o := fs.Layout().Order()
	coords := make([]int, 2)
	for c := range values {
		o.Coords(c, coords)
		if region.Contains(coords) {
			for _, v := range values[c] {
				want += v
			}
		}
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestFileStorePersistence(t *testing.T) {
	fs, values, path, bytes := buildFileStore(t, 4)
	loaded := fs.LoadedBytes()
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	o := fs.Layout().Order()
	fs2, err := OpenFileStore(path, o, bytes, 64, 4, loaded)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	region := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}
	got, _, err := sumRegion(context.Background(), fs2, region, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, vs := range values {
		for _, v := range vs {
			want += v
		}
	}
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("reopened Sum = %v, want %v", got, want)
	}
}

func TestFileStorePoolPressure(t *testing.T) {
	// A single-frame pool still answers correctly, just with more misses.
	fs, _, _, _ := buildFileStore(t, 1)
	defer fs.Close()
	region := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}
	first, io1, err := sumRegion(context.Background(), fs, region, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	second, io2, err := sumRegion(context.Background(), fs, region, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Errorf("sums differ: %v vs %v", first, second)
	}
	if io1.Misses == 0 || io2.Misses == 0 {
		t.Error("single-frame pool should miss")
	}
	// A big pool turns the second scan into pure hits.
	fsBig, _, _, _ := buildFileStore(t, 64)
	defer fsBig.Close()
	if _, _, err := sumRegion(context.Background(), fsBig, region, decodeF64); err != nil {
		t.Fatal(err)
	}
	_, ioHot, err := sumRegion(context.Background(), fsBig, region, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	if ioHot.Misses != 0 {
		t.Errorf("hot scan missed %d pages", ioHot.Misses)
	}
}

func TestFileStoreErrors(t *testing.T) {
	o := rowMajor4x4(t)
	bytes := make([]int64, o.Len())
	bytes[0] = rowcodec.FrameSize(4)
	dir := t.TempDir()
	fs, err := CreateFileStore(filepath.Join(dir, "s.db"), o, bytes, 64, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := rowcodec.PutRecord(fs, 0, make([]byte, 4)); err != nil {
		t.Fatal(err)
	}
	if err := rowcodec.PutRecord(fs, 0, make([]byte, 4)); err == nil {
		t.Error("overflow should fail")
	}
	if _, err := OpenFileStore(filepath.Join(dir, "missing.db"), o, bytes, 64, 2, nil); err == nil {
		t.Error("missing file should fail")
	}
	if _, err := OpenFileStore(filepath.Join(dir, "s.db"), o, bytes, 64, 2, []int64{1}); err == nil {
		t.Error("wrong loadedBytes length should fail")
	}
}

func TestCreatePageFileErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := CreatePageFile(filepath.Join(dir, "x"), 0, 4); err == nil {
		t.Error("zero page size should fail")
	}
	if _, err := CreatePageFile(filepath.Join(dir, "x"), 16, -1); err == nil {
		t.Error("negative pages should fail")
	}
	if _, err := CreatePageFile(filepath.Join(dir, "nodir", "x"), 16, 2); err == nil {
		t.Error("missing directory should fail")
	}
}

func TestCreateFileStoreErrors(t *testing.T) {
	o := rowMajor4x4(t)
	bytes := make([]int64, o.Len())
	dir := t.TempDir()
	if _, err := CreateFileStore(filepath.Join(dir, "s"), o, bytes[:3], 64, 2); err == nil {
		t.Error("wrong cell-size count should fail")
	}
	if _, err := CreateFileStore(filepath.Join(dir, "s"), o, bytes, 64, 0); err == nil {
		t.Error("zero pool capacity should fail")
	}
	if _, err := CreateFileStore(filepath.Join(dir, "nodir", "s"), o, bytes, 64, 2); err == nil {
		t.Error("missing directory should fail")
	}
}

// buildStore packs a 4×4 grid with one float64 measure per record and a
// varying number of records per cell, on a pool larger than the file.
func buildStore(t *testing.T, recsPerCell func(cell int) int) (*FileStore, [][]float64) {
	t.Helper()
	o := rowMajor4x4(t)
	values := make([][]float64, o.Len())
	bytes := make([]int64, o.Len())
	rng := rand.New(rand.NewSource(12))
	for c := range values {
		n := recsPerCell(c)
		values[c] = make([]float64, n)
		for i := range values[c] {
			values[c][i] = float64(rng.Intn(100))
		}
		bytes[c] = int64(n) * rowcodec.FrameSize(8)
	}
	st := newTempStore(t, o, bytes, 64)
	buf := make([]byte, 8)
	for c, vs := range values {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf, math.Float64bits(v))
			if err := rowcodec.PutRecord(st, c, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	return st, values
}

// newTempStore creates an empty store in the test's temp dir, closed with
// the test.
func newTempStore(t *testing.T, o *linear.Order, bytes []int64, pageSize int) *FileStore {
	t.Helper()
	st, err := CreateFileStore(filepath.Join(t.TempDir(), "store.db"), o, bytes, pageSize, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func decodeF64(rec []byte) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(rec))
}

// readRegion plans r and reads its records, as a record caller does.
func readRegion(ctx context.Context, fs *FileStore, r linear.Region, fn func(cell int, rec []byte) error) error {
	p, err := fs.Plan(ctx, r)
	if err != nil {
		return err
	}
	return fs.ReadPlanCellsCtx(ctx, p, rowcodec.Records(fn))
}

// sumRegion reads r and totals decode over its records in disk order, with
// the pool traffic the read generated: into the tally ctx carries, or a
// fresh one.
func sumRegion(ctx context.Context, fs *FileStore, r linear.Region, decode func(rec []byte) float64) (float64, PoolStats, error) {
	tally := tallyFrom(ctx)
	if tally == nil {
		tally = new(PoolTally)
		ctx = WithPoolTally(ctx, tally)
	}
	total := 0.0
	if err := readRegion(ctx, fs, r, func(_ int, rec []byte) error {
		total += decode(rec)
		return nil
	}); err != nil {
		return 0, PoolStats{}, err
	}
	return total, tally.Stats(), nil
}

// setPoolFrames writes fs's pool back and replaces it with an empty one of
// the given capacity, which sets the read window (spanWindow).
func setPoolFrames(t *testing.T, fs *FileStore, frames int) {
	t.Helper()
	if err := fs.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := fs.pool.Close(); err != nil {
		t.Fatal(err)
	}
	pool, err := NewBufferPool(fs.file, frames)
	if err != nil {
		t.Fatal(err)
	}
	fs.pool = pool
}

func TestStoreSumMatchesNaive(t *testing.T) {
	st, values := buildStore(t, func(cell int) int { return 1 + cell%3 })
	o := st.Layout().Order()
	rng := rand.New(rand.NewSource(5))
	coords := make([]int, 2)
	for trial := 0; trial < 60; trial++ {
		r := make(linear.Region, 2)
		for d, n := range o.Shape() {
			lo := rng.Intn(n)
			r[d] = linear.Range{Lo: lo, Hi: lo + 1 + rng.Intn(n-lo)}
		}
		got, _, err := sumRegion(context.Background(), st, r, decodeF64)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for c := range values {
			o.Coords(c, coords)
			if r.Contains(coords) {
				for _, v := range values[c] {
					want += v
				}
			}
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("region %v: Sum = %v, want %v", r, got, want)
		}
	}
}

func TestStoreIOMatchesLayoutQuery(t *testing.T) {
	st, _ := buildStore(t, func(cell int) int { return 2 })
	r := linear.Region{{Lo: 0, Hi: 4}, {Lo: 1, Hi: 2}}
	predicted := st.Layout().Query(r)
	if err := st.Pool().Reset(context.Background()); err != nil {
		t.Fatal(err)
	}
	var tally PoolTally
	if _, _, err := sumRegion(WithPoolTally(context.Background(), &tally), st, r, decodeF64); err != nil {
		t.Fatal(err)
	}
	if pages, seeks := tally.Stats().Misses, tally.Seeks(); pages != predicted.Pages || seeks != predicted.Seeks {
		t.Errorf("cold read took %d pages, %d seeks; Layout.Query predicts %d, %d",
			pages, seeks, predicted.Pages, predicted.Seeks)
	}
}

func TestStoreEmptyCells(t *testing.T) {
	st, values := buildStore(t, func(cell int) int {
		if cell%4 == 0 {
			return 0
		}
		return 1
	})
	got, _, err := sumRegion(context.Background(), st, linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}, decodeF64)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, vs := range values {
		for _, v := range vs {
			want += v
		}
	}
	if got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
}

func TestStorePutOverflow(t *testing.T) {
	o := rowMajor4x4(t)
	bytes := make([]int64, o.Len())
	bytes[0] = rowcodec.FrameSize(8)
	st := newTempStore(t, o, bytes, 64)
	rec := make([]byte, 8)
	if err := rowcodec.PutRecord(st, 0, rec); err != nil {
		t.Fatal(err)
	}
	if err := rowcodec.PutRecord(st, 0, rec); err == nil {
		t.Error("second record should overflow the cell's reservation")
	}
	if err := rowcodec.PutRecord(st, 1, rec); err == nil {
		t.Error("record in a zero-capacity cell should fail")
	}
}

func TestScanErrorPropagation(t *testing.T) {
	st, _ := buildStore(t, func(cell int) int { return 1 })
	calls := 0
	err := readRegion(context.Background(), st, linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 4}}, func(cell int, rec []byte) error {
		calls++
		if calls == 3 {
			return errStop
		}
		return nil
	})
	if err != errStop {
		t.Errorf("err = %v, want errStop", err)
	}
	if calls != 3 {
		t.Errorf("fn called %d times, want 3", calls)
	}
}

var errStop = &scanTestError{}

type scanTestError struct{}

func (*scanTestError) Error() string { return "stop" }

func TestVariableLengthRecords(t *testing.T) {
	o := rowMajor4x4(t)
	bytes := make([]int64, o.Len())
	payloads := [][]byte{[]byte("a"), []byte("longer record"), []byte("xx")}
	var reserve int64
	for _, p := range payloads {
		reserve += rowcodec.FrameSize(len(p))
	}
	bytes[5] = reserve
	st := newTempStore(t, o, bytes, 16)
	for _, p := range payloads {
		if err := rowcodec.PutRecord(st, 5, p); err != nil {
			t.Fatal(err)
		}
	}
	var got [][]byte
	coords := make([]int, 2)
	o.Coords(5, coords)
	r := linear.Region{{Lo: coords[0], Hi: coords[0] + 1}, {Lo: coords[1], Hi: coords[1] + 1}}
	if err := readRegion(context.Background(), st, r, func(cell int, rec []byte) error {
		got = append(got, append([]byte(nil), rec...))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payloads) {
		t.Fatalf("scanned %d records, want %d", len(got), len(payloads))
	}
	for i := range got {
		if string(got[i]) != string(payloads[i]) {
			t.Errorf("record %d = %q, want %q", i, got[i], payloads[i])
		}
	}
}
