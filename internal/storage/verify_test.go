package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/linear"
	"repro/internal/rowcodec"
)

// framedCheck is the cell check of a store of framed records with no row
// template: every record a row.
func framedCheck(cell []byte) (int, error) { return rowcodec.CheckCell(nil, cell) }

func TestVerifyCleanStore(t *testing.T) {
	fs, values, _, _ := buildFileStore(t, 4)
	defer fs.Close()
	fs.SetCellCheck(framedCheck)
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
	var records, cells int64
	for _, vs := range values {
		records += int64(len(vs))
		if len(vs) > 0 {
			cells++
		}
	}
	if rep.Rows != records || rep.Cells != cells {
		t.Errorf("walked %d cells of %d records, want %d of %d", rep.Cells, rep.Rows, cells, records)
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
	if rep, err := fs.Verify(); err != nil || !rep.OK() {
		t.Fatalf("a clean store: %v %v", rep, err)
	}
	fs.SetCellCheck(framedCheck)
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

// TestVerifyReadsEachPageOnce: on a clean store Verify and RepairCtx each
// read every page of the file exactly once, and nothing else.
func TestVerifyReadsEachPageOnce(t *testing.T) {
	fs, _, path, bytes := buildFileStore(t, 4)
	fs, cf := openGated(t, fs, path, fs.Layout().Order(), bytes, 4, nil)
	defer fs.Close()
	if err := fs.WriteParity(ParityPath(path), 0); err != nil {
		t.Fatal(err)
	}
	total := fs.Layout().TotalPages()
	for _, sweep := range []struct {
		name string
		run  func() (ok bool, err error)
	}{
		{"Verify", func() (bool, error) { rep, err := fs.Verify(); return rep != nil && rep.OK(), err }},
		{"RepairCtx", func() (bool, error) { rep, err := fs.RepairCtx(context.Background()); return rep.OK(), err }},
		{"one-page windows", func() (bool, error) { return cleanWindows(t, fs, 1, false) }},
		{"repairing windows of two pages", func() (bool, error) { return cleanWindows(t, fs, 2, true) }},
	} {
		cf.mu.Lock()
		cf.perPage = nil
		cf.mu.Unlock()
		before := cf.reads.Load()
		ok, err := sweep.run()
		if err != nil || !ok {
			t.Fatalf("%s on a clean store: ok=%v err=%v", sweep.name, ok, err)
		}
		if got := cf.reads.Load() - before; got != total {
			t.Errorf("%s issued %d page reads, want TotalPages() = %d", sweep.name, got, total)
		}
		for p := int64(0); p < total; p++ {
			if n := cf.perPage[p]; n != 1 {
				t.Errorf("%s read page %d %d times, want once", sweep.name, p, n)
			}
		}
	}
}

// cleanWindows scrubs fs in windows of size pages, each starting at the last
// one's Next, and reports whether they all came back clean. Each window
// reads exactly its pages, and at least one must carry a cell open across
// its edge.
func cleanWindows(t *testing.T, fs *FileStore, size int64, repair bool) (bool, error) {
	t.Helper()
	ok, split := true, false
	for at := (ScrubCursor{}); at.Page < fs.Layout().TotalPages(); {
		hi := min(at.Page+size, fs.Layout().TotalPages())
		rep, err := fs.ScrubRange(context.Background(), at, hi, repair)
		if err != nil {
			return false, err
		}
		if rep.Pages != hi-at.Page || rep.Next.Page != hi {
			t.Fatalf("window [%d, %d) read %d pages and ends at %d", at.Page, hi, rep.Pages, rep.Next.Page)
		}
		ok = ok && rep.OK()
		split = split || rep.Next.open != nil
		at = rep.Next
	}
	if !split {
		t.Errorf("no window of %d page(s) had a cell across its edge", size)
	}
	return ok, nil
}

// scrubInWindows covers fs with windows of random sizes, each starting at
// the last one's Next, and adds up what they found.
func scrubInWindows(t *testing.T, rng *rand.Rand, fs *FileStore) *VerifyReport {
	t.Helper()
	sum := &VerifyReport{}
	for at := (ScrubCursor{}); at.Page < fs.Layout().TotalPages(); {
		hi := min(at.Page+1+rng.Int63n(4), fs.Layout().TotalPages())
		rep, err := fs.ScrubRange(context.Background(), at, hi, false)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Pages != hi-at.Page || rep.Next.Page != hi {
			t.Fatalf("window [%d, %d) read %d pages and ends at %d", at.Page, hi, rep.Pages, rep.Next.Page)
		}
		sum.Pages += rep.Pages
		sum.Cells += rep.Cells
		sum.Rows += rep.Rows
		sum.Problems = append(sum.Problems, rep.Problems...)
		at = rep.Next
	}
	return sum
}

// TestScrubCarryAfterWrite: a cell open across a window edge and rewritten
// before the next window, with other record boundaries, is walked again
// from its first page — not judged from the stale bytes before the edge:
// the rest of the pass reads clean and counts the cell's new records.
func TestScrubCarryAfterWrite(t *testing.T) {
	ctx := context.Background()
	fs, values, _, _ := buildFileStore(t, 4)
	defer fs.Close()
	fs.SetCellCheck(framedCheck)
	at, total := ScrubCursor{}, fs.Layout().TotalPages()
	var records int64
	for at.open == nil && at.Page < total {
		rep, err := fs.ScrubRange(ctx, at, at.Page+1, false)
		if err != nil || !rep.OK() {
			t.Fatalf("window at page %d: %v %v", at.Page, err, rep.Err())
		}
		records, at = records+rep.Rows, rep.Next
	}
	if at.open == nil {
		t.Fatal("no one-page window left a cell open")
	}
	cell := int(fs.dir[at.open.pos].cell)
	fill := rowcodec.FrameSize(8) * int64(len(values[cell]))
	framed, n := rowcodec.FrameRecords(make([]byte, fill-rowcodec.FrameSize(0))), 1 // one record where there were several
	if len(values[cell]) == 1 {
		framed, n = rowcodec.FrameRecords(make([]byte, 2), make([]byte, fill-2*rowcodec.FrameSize(0)-2)), 2
	}
	if err := fs.PutCellBytes(cell, framed); err != nil {
		t.Fatal(err)
	}
	for at.Page < total {
		rep, err := fs.ScrubRange(ctx, at, at.Page+1, false)
		if err != nil || !rep.OK() {
			t.Fatalf("window at page %d after rewriting open cell %d: %v %v", at.Page, cell, err, rep.Err())
		}
		records, at = records+rep.Rows, rep.Next
	}
	want := int64(n)
	for c, v := range values {
		if c != cell {
			want += int64(len(v))
		}
	}
	if records != want {
		t.Errorf("the pass counted %d records, want %d: cell %d's %d new ones and every other cell's", records, want, cell, n)
	}
}

// TestScrubWindowsMatchVerify: random sequences of scrub windows that cover
// random framed and packed stores, under the damage of
// TestVerifyWalkMatchesTwoPassOracle, report the pages, records, rows and
// problems of one VerifyCtx and of the two-pass oracle.
func TestScrubWindowsMatchVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ctx := context.Background()
	problems := func(r *VerifyReport) []string {
		out := make([]string, len(r.Problems))
		for i, p := range r.Problems {
			out[i] = p.String()
		}
		sort.Strings(out)
		return out
	}
	check := func(name string, fs *FileStore) {
		t.Helper()
		oracle, oerr := oracleVerify(ctx, fs)
		whole, werr := fs.VerifyCtx(ctx)
		if oerr != nil || werr != nil {
			t.Fatalf("%s: oracle err %v, walk err %v", name, oerr, werr)
		}
		got := scrubInWindows(t, rng, fs)
		for _, want := range []*VerifyReport{whole, oracle} {
			if got.Pages != want.Pages || got.Cells != want.Cells || got.Rows != want.Rows ||
				!reflect.DeepEqual(problems(got), problems(want)) {
				t.Fatalf("%s: windows %d pages %d cells %d rows %v, want %d pages %d cells %d rows %v",
					name, got.Pages, got.Cells, got.Rows, problems(got), want.Pages, want.Cells, want.Rows, problems(want))
			}
		}
	}
	for trial := 0; trial < 8; trial++ {
		for oi, o := range diffOrders(t, rng) {
			for _, packed := range []bool{false, true} {
				var fs *FileStore
				if packed {
					fs = buildPackedStore(t, rng, o)
				} else {
					fs = buildDiffStore(t, rng, o, rng.Intn(2) == 0).fs
				}
				name := fmt.Sprintf("trial %d order %d packed %v", trial, oi, packed)
				check(name+", clean", fs)
				breakFraming(t, rng, fs, packed)
				check(name+", broken framing", fs)
				flipStoredByte(t, rng, fs)
				check(name+", one flip", fs)
				flipStoredByte(t, rng, fs)
				check(name+", two flips", fs)
				if trial%3 == 0 {
					pos := rng.Intn(o.Len())
					fs.dir[pos].fill = uint32(fs.dir[pos+1].start-fs.dir[pos].start) + 1
					check(name+", fill past its reservation", fs)
				}
			}
		}
	}
}

// TestVerifyWalkMatchesTwoPassOracle holds the one scrub walk to the
// two-pass scrub it replaced: on random unbalanced stores (records
// straddling 64-byte pages, cells over several pages, reserved tails left
// unwritten) under broken framing, single and double byte flips and a fill
// past its reservation, both give the same pages, records and problems in
// the same order.
func TestVerifyWalkMatchesTwoPassOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	ctx := context.Background()
	for trial := 0; trial < 12; trial++ {
		for oi, o := range diffOrders(t, rng) {
			fs := buildDiffStore(t, rng, o, rng.Intn(2) == 0).fs
			name := fmt.Sprintf("trial %d order %d", trial, oi)
			check := func(step string) {
				t.Helper()
				want, werr := oracleVerify(ctx, fs)
				got, gerr := fs.VerifyCtx(ctx)
				if werr != nil || gerr != nil {
					t.Fatalf("%s, %s: oracle err %v, walk err %v", name, step, werr, gerr)
				}
				sameVerifyReport(t, name+", "+step, got, want)
			}
			check("clean")
			breakFraming(t, rng, fs, false)
			check("broken framing")
			flipStoredByte(t, rng, fs)
			check("one flip")
			flipStoredByte(t, rng, fs)
			check("two flips")
			if trial%3 == 0 {
				pos := rng.Intn(o.Len())
				fs.dir[pos].fill = uint32(fs.dir[pos+1].start-fs.dir[pos].start) + 1
				check("fill past its reservation")
			}
		}
	}
	// A frameless store of packed and framed cells, as snakestore build
	// writes one: a packed cell is its rows alone, appended a row at a time,
	// a framed cell the marker and then framed rows, and a packed cell
	// straddles a page.
	for trial := 0; trial < 12; trial++ {
		for oi, o := range diffOrders(t, rng) {
			fs := buildPackedStore(t, rng, o)
			name := fmt.Sprintf("packed trial %d order %d", trial, oi)
			check := func(step string) {
				t.Helper()
				want, werr := oracleVerify(ctx, fs)
				got, gerr := fs.VerifyCtx(ctx)
				if werr != nil || gerr != nil {
					t.Fatalf("%s, %s: oracle err %v, walk err %v", name, step, werr, gerr)
				}
				sameVerifyReport(t, name+", "+step, got, want)
			}
			check("clean")
			breakFraming(t, rng, fs, true)
			check("broken framing")
			flipStoredByte(t, rng, fs)
			check("one flip")
		}
	}

	// The cells after a file that ends on a page boundary start past its
	// last page; only their fill can be wrong.
	o := rowMajor4x4(t)
	sizes := make([]int64, o.Len())
	sizes[o.CellAt(0)] = 64 - PageTrailerSize
	fs, err := CreateFileStore(t.TempDir()+"/edge.db", o, sizes, 64, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if err := rowcodec.PutRecord(fs, o.CellAt(0), make([]byte, sizes[o.CellAt(0)]-rowcodec.FrameSize(0))); err != nil {
		t.Fatal(err)
	}
	fs.dir[o.Len()-1].fill = 1
	want, _ := oracleVerify(ctx, fs)
	got, err := fs.VerifyCtx(ctx)
	if err != nil || len(want.Problems) != 1 {
		t.Fatalf("file-end case: walk err %v, oracle problems %v", err, want.Problems)
	}
	sameVerifyReport(t, "cell past the file end", got, want)
}

// pageErr is a one-page scrub window's verdict on page p, repairing it from
// parity first when repair is set: the window's first problem when it is on
// p (a damaged first page comes first), nil when p reads clean.
func pageErr(fs *FileStore, p int64, repair bool) error {
	rep, err := fs.ScrubRange(context.Background(), ScrubCursor{Page: p}, p+1, repair)
	if err == nil && len(rep.Problems) > 0 && rep.Problems[0].Page == p {
		err = rep.Problems[0].Err
	}
	return err
}

func sameVerifyReport(t *testing.T, name string, got, want *VerifyReport) {
	t.Helper()
	if got.Pages != want.Pages || got.Cells != want.Cells || got.Rows != want.Rows || len(got.Problems) != len(want.Problems) {
		t.Fatalf("%s: walk %d pages %d cells %d rows %d problems, oracle %d pages %d cells %d rows %d problems\nwalk:   %v\noracle: %v",
			name, got.Pages, got.Cells, got.Rows, len(got.Problems), want.Pages, want.Cells, want.Rows, len(want.Problems), got.Problems, want.Problems)
	}
	for i, w := range want.Problems {
		g := got.Problems[i]
		if g.Page != w.Page || g.Cell != w.Cell || !reflect.DeepEqual(g.Coords, w.Coords) ||
			g.String() != w.String() || errors.Is(g.Err, ErrCorruptPage) != errors.Is(w.Err, ErrCorruptPage) {
			t.Fatalf("%s: problem %d is %v, oracle has %v", name, i, g, w)
		}
	}
	if (got.Err() == nil) != (want.Err() == nil) || got.Err() != nil && got.Err().Error() != want.Err().Error() {
		t.Fatalf("%s: Err() %v, oracle %v", name, got.Err(), want.Err())
	}
}

// breakFraming rewrites, through the pool (so checksums stay valid), a
// random filled cell so that the cell check refuses it. A framed cell has
// one record header rewritten: the record overruns the fill by far or by
// one byte, or ends 0-3 bytes short of it so what follows is a partial
// header. In a frameless store (a template with the marker bit) a framed
// cell's records start after the marker, and a packed cell gets a first
// byte that is neither a row's nor the marker, or loses its last byte.
func breakFraming(t *testing.T, rng *rand.Rand, fs *FileStore, frameless bool) {
	t.Helper()
	var filled []int
	for pos := 0; pos < fs.layout.order.Len(); pos++ {
		if fs.dir[pos].fill > 0 {
			filled = append(filled, pos)
		}
	}
	if len(filled) == 0 {
		return
	}
	pos := filled[rng.Intn(len(filled))]
	lo, fill := fs.dir[pos].start, int64(fs.dir[pos].fill)
	data := make([]byte, fill)
	if err := fs.pool.ReadAt(data, lo); err != nil {
		t.Fatal(err)
	}
	if frameless {
		if data[0]&1 == 0 {
			if rng.Intn(2) == 0 {
				fs.dir[pos].fill--
				return
			}
			if err := fs.pool.WriteAt([]byte{data[0] | 3}, lo); err != nil {
				t.Fatal(err)
			}
			return
		}
		lo, fill, data = lo+1, fill-1, data[1:]
		if fill == 0 {
			return
		}
	}
	var headers []int64
	for off := int64(0); off < fill; {
		headers = append(headers, off)
		off += rowcodec.FrameSize(int(binary.LittleEndian.Uint32(data[off:])))
	}
	at := headers[rng.Intn(len(headers))]
	rest := fill - at - rowcodec.FrameSize(0) // payload bytes left after the header
	n := []int64{1 << 30, rest + 1, rest - 1, rest - 2, rest - 3}[rng.Intn(5)]
	if n < 0 {
		n = rest + 1
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(n))
	if err := fs.pool.WriteAt(hdr[:], lo+at); err != nil {
		t.Fatal(err)
	}
}

// flipStoredByte flips one bit of a random page on disk, under the pool:
// anywhere in the data region or the trailer. A store of no pages keeps
// its bits.
func flipStoredByte(t *testing.T, rng *rand.Rand, fs *FileStore) {
	t.Helper()
	if err := fs.pool.Flush(); err != nil {
		t.Fatal(err)
	}
	inner := fs.file.inner
	if inner.Pages() == 0 {
		return
	}
	page := rng.Int63n(inner.Pages())
	buf := make([]byte, inner.PageSize())
	if err := inner.ReadPages(page, buf); err != nil {
		t.Fatal(err)
	}
	buf[rng.Intn(len(buf))] ^= 1 << rng.Intn(8)
	if err := inner.WritePage(page, buf); err != nil {
		t.Fatal(err)
	}
}

// buildPackedStore loads o's cells the way snakestore build does under a
// row template with the marker bit: a cell whose rows all have the
// template's shape is its packed rows alone, one AppendBytes a row; the
// others are the marker and then framed rows, one AppendBytes a row. The
// cell check is the codec's. The packed cell of 12 rows straddles a 64-byte
// page, and the walk's cell and row counts are checked against what was
// written.
func buildPackedStore(t *testing.T, rng *rand.Rand, o *linear.Order) *FileStore {
	t.Helper()
	d := rowcodec.NewDict()
	row := func(misfits bool) string {
		if misfits && rng.Intn(5) == 0 {
			return fmt.Sprintf("%d,misfit %d", rng.Intn(100), rng.Intn(10))
		}
		return fmt.Sprintf("%d.%02d,%c,item %04d", rng.Intn(1000), rng.Intn(100), "NRA"[rng.Intn(3)], rng.Intn(10000))
	}
	n := o.Len()
	rows := make([][]string, n)
	shapes := make([][]int, n)
	for c := 0; c < n; c++ {
		if c != n/2 && rng.Intn(4) == 0 {
			continue
		}
		k := 1 + rng.Intn(3)
		if c == n/2 {
			k = 12 // 12 rows of 5 bytes: past one page's 56 usable bytes
		}
		for ; k > 0; k-- {
			r := row(c != n/2)
			rows[c] = append(rows[c], r)
			_, _, shape := d.Learn([]byte(r))
			shapes[c] = append(shapes[c], shape)
		}
	}
	d.Template()
	sizes := make([]int64, n)
	packed := make([]bool, n)
	for c, rs := range rows {
		fits := true
		var framed int64
		for i, r := range rs {
			fits = fits && d.Fits(shapes[c][i])
			framed += rowcodec.FrameSize(rowcodec.EncodedLen(d, r))
		}
		if len(rs) > 0 {
			sizes[c], packed[c] = d.CellLen(len(rs), framed, fits)
		}
	}
	fs, err := CreateFileStore(filepath.Join(t.TempDir(), "packed.db"), o, sizes, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	fs.SetCellCheck(func(cell []byte) (int, error) { return rowcodec.CheckCell(d, cell) })
	for c, rs := range rows {
		for i, r := range rs {
			var b []byte
			if packed[c] {
				var ok bool
				if b, ok = rowcodec.Pack(d, nil, r); !ok {
					t.Fatalf("%q has the template's shape, Pack refuses it", r)
				}
			} else {
				if i == 0 {
					b = d.AppendMarker(nil)
				}
				b = rowcodec.AppendFramedRow(d, b, r)
			}
			if err := fs.AppendBytes(c, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pos := o.PosOf(n / 2); !packed[n/2] || fs.dir[pos].start/fs.layout.usable() == (fs.dir[pos+1].start-1)/fs.layout.usable() {
		t.Fatalf("the cell of %d rows of %d bytes is not packed across a page", len(rows[n/2]), d.Width())
	}
	rep, err := fs.VerifyCtx(context.Background())
	if err != nil || !rep.OK() {
		t.Fatalf("packed store does not verify clean: %v %v", err, rep.Problems)
	}
	var cells, rowsWritten int64
	for _, rs := range rows {
		if len(rs) > 0 {
			cells++
		}
		rowsWritten += int64(len(rs))
	}
	if rep.Cells != cells || rep.Rows != rowsWritten {
		t.Fatalf("walk counts %d cells %d rows, %d and %d written", rep.Cells, rep.Rows, cells, rowsWritten)
	}
	return fs
}
