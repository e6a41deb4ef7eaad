package storage

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/hierarchy"
	"repro/internal/linear"
)

// parityFixture builds a loaded file store with an attached parity sidecar
// and returns it plus its paths and a snapshot of every record (ground
// truth for byte-exact repair checks).
func parityFixture(t *testing.T, pageSize, groupSize int) (*FileStore, string, map[int][]string) {
	t.Helper()
	o := testOrder(t)
	bytesPerCell := make([]int64, o.Len())
	for c := range bytesPerCell {
		bytesPerCell[c] = 4 * FrameSize(11)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "facts.db")
	fs, err := CreateFileStore(path, o, bytesPerCell, pageSize, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	truth := make(map[int][]string)
	for c := 0; c < o.Len(); c++ {
		for r := 0; r < 4; r++ {
			rec := fmt.Sprintf("cell%03d-r%02d", c, r)
			if len(rec) != 11 {
				t.Fatalf("fixture record %q is %d bytes, want 11", rec, len(rec))
			}
			if err := fs.PutRecord(c, []byte(rec)); err != nil {
				t.Fatal(err)
			}
			truth[c] = append(truth[c], rec)
		}
	}
	if err := fs.WriteParity(ParityPath(path), groupSize); err != nil {
		t.Fatal(err)
	}
	return fs, path, truth
}

// testOrder returns a small 4×6 row-major order shared by the parity tests.
func testOrder(t *testing.T) *linear.Order {
	t.Helper()
	s := hierarchy.MustSchema(hierarchy.Uniform("A", 2, 2), hierarchy.Uniform("B", 1, 6))
	o, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// corruptOnDisk flips one bit in the given physical page of the store file,
// underneath the open FileStore.
func corruptOnDisk(t *testing.T, path string, pageSize int, page int64, bit int) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	off := page*int64(pageSize) + int64(bit/8)
	one := make([]byte, 1)
	if _, err := f.ReadAt(one, off); err != nil {
		t.Fatal(err)
	}
	one[0] ^= 1 << (bit % 8)
	if _, err := f.WriteAt(one, off); err != nil {
		t.Fatal(err)
	}
}

// assertTruth scans the full grid and checks every record byte-exactly
// against the fixture's ground truth.
func assertTruth(t *testing.T, fs *FileStore, truth map[int][]string) {
	t.Helper()
	got := make(map[int][]string)
	full := linear.Region{{Lo: 0, Hi: 4}, {Lo: 0, Hi: 6}}
	if err := readRegion(context.Background(), fs, full, func(cell int, record []byte) error {
		got[cell] = append(got[cell], string(record))
		return nil
	}); err != nil {
		t.Fatalf("post-repair scan: %v", err)
	}
	for c, want := range truth {
		if len(got[c]) != len(want) {
			t.Fatalf("cell %d has %d records, want %d", c, len(got[c]), len(want))
		}
		for i := range want {
			if got[c][i] != want[i] {
				t.Errorf("cell %d record %d = %q, want %q", c, i, got[c][i], want[i])
			}
		}
	}
}

// TestParityRepairEveryPageSingleFault corrupts every physical page index
// in turn (one bit each, different bit positions) and asserts a repairing window
// restores the store byte-exactly, verified by a clean scrub and a
// ground-truth scan. This is the satellite's single-fault sweep.
func TestParityRepairEveryPageSingleFault(t *testing.T) {
	const pageSize = 64
	fs, path, truth := parityFixture(t, pageSize, 4)
	total := fs.Layout().TotalPages()
	if total < 8 {
		t.Fatalf("fixture spans only %d pages; want enough for several parity groups", total)
	}
	for p := int64(0); p < total; p++ {
		bit := int(7+13*p) % (pageSize * 8)
		corruptOnDisk(t, path, pageSize, p, bit)
		if err := pageErr(fs, p, false); !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("page %d after bit flip: one-page scrub = %v, want ErrCorruptPage", p, err)
		}
		if err := pageErr(fs, p, true); err != nil {
			t.Fatalf("repairing page %d = %v, want success", p, err)
		}
		if err := pageErr(fs, p, false); err != nil {
			t.Fatalf("page %d after repair: one-page scrub = %v, want clean", p, err)
		}
	}
	rep, err := fs.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-repair scrub found %d problem(s): %v", len(rep.Problems), rep.Err())
	}
	assertTruth(t, fs, truth)
}

// TestParityRepairDoubleFaultUnrepairable corrupts two pages of the same
// parity group for every group and asserts the typed ErrUnrepairable with
// both damage coordinates — then repairs groups one-page-at-a-time is NOT
// possible, but single faults in *different* groups still heal.
func TestParityRepairDoubleFaultUnrepairable(t *testing.T) {
	const pageSize = 64
	const group = 4
	fs, path, truth := parityFixture(t, pageSize, group)
	total := fs.Layout().TotalPages()
	groups := (total + group - 1) / group
	for g := int64(0); g < groups; g++ {
		p0 := g * group
		p1 := p0 + 1
		if p1 >= total {
			continue // last group too small for a double fault
		}
		corruptOnDisk(t, path, pageSize, p0, 3)
		corruptOnDisk(t, path, pageSize, p1, 9)
		err := pageErr(fs, p0, true)
		if !errors.Is(err, ErrUnrepairable) {
			t.Fatalf("group %d double fault: repair = %v, want ErrUnrepairable", g, err)
		}
		var ue *UnrepairableError
		if !errors.As(err, &ue) {
			t.Fatalf("group %d: error %v carries no UnrepairableError", g, err)
		}
		if ue.Group != g || len(ue.BadPages) != 2 || ue.BadPages[0] != p0 || ue.BadPages[1] != p1 {
			t.Errorf("group %d coordinates = %+v, want group %d bad pages [%d %d]", g, ue, g, p0, p1)
		}
		if ue.Cell < 0 || ue.Coords == nil {
			t.Errorf("group %d: unrepairable error lost its cell coordinates: %+v", g, ue)
		}
		// Heal the group out-of-band (restore one page from the pristine
		// sibling content is impossible here, so un-flip the bits) and
		// confirm parity repair of the remaining single fault works.
		corruptOnDisk(t, path, pageSize, p1, 9) // un-flip: XOR is its own inverse
		if err := pageErr(fs, p0, true); err != nil {
			t.Fatalf("group %d single fault after un-flip: repair = %v", g, err)
		}
	}
	rep, err := fs.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("post-repair scrub found problems: %v", rep.Err())
	}
	assertTruth(t, fs, truth)
}

// TestParityRepairParityPageDamage: a damaged parity page makes its group
// unrepairable (typed), but WriteParity rebuilds the sidecar from clean
// data and repair works again.
func TestParityRepairParityPageDamage(t *testing.T) {
	const pageSize = 64
	fs, path, _ := parityFixture(t, pageSize, 4)
	// Damage parity page of group 0 (sidecar page 1) and data page 0.
	corruptOnDisk(t, ParityPath(path), pageSize, 1, 5)
	corruptOnDisk(t, path, pageSize, 0, 5)
	err := pageErr(fs, 0, true)
	if !errors.Is(err, ErrUnrepairable) {
		t.Fatalf("repair with damaged parity = %v, want ErrUnrepairable", err)
	}
	// Un-flip the data page; rebuild parity; damage data again; repair works.
	corruptOnDisk(t, path, pageSize, 0, 5)
	if err := fs.WriteParity(ParityPath(path), 4); err != nil {
		t.Fatalf("parity rebuild: %v", err)
	}
	corruptOnDisk(t, path, pageSize, 0, 5)
	if err := pageErr(fs, 0, true); err != nil {
		t.Fatalf("repair after parity rebuild = %v, want success", err)
	}
}

// TestParityLiveAfterWrite: writes XOR-patch the sidecar in place, so
// self-healing survives ingest — parity stays usable after PutRecord and
// PutCellBytes, and a repair after the write reconstructs the *post-write*
// bytes, never resurrecting pre-write content.
func TestParityLiveAfterWrite(t *testing.T) {
	o := testOrder(t)
	bytesPerCell := make([]int64, o.Len())
	for c := range bytesPerCell {
		bytesPerCell[c] = 8 * FrameSize(11)
	}
	dir := t.TempDir()
	p2 := filepath.Join(dir, "facts2.db")
	fs2, err := CreateFileStore(p2, o, bytesPerCell, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if err := fs2.PutRecord(0, []byte("cell000-r00")); err != nil {
		t.Fatal(err)
	}
	if err := fs2.WriteParity(ParityPath(p2), 4); err != nil {
		t.Fatal(err)
	}
	if err := fs2.PutRecord(0, []byte("cell000-r01")); err != nil {
		t.Fatal(err)
	}
	if err := fs2.PutCellBytes(1, FrameRecords([]byte("cell001-rXX"))); err != nil {
		t.Fatal(err)
	}
	if !fs2.HasParity() {
		t.Fatal("parity degraded by a write; the XOR patch should keep it live")
	}
	// Corrupt the written page on disk and repair it: the reconstruction
	// must contain the post-write records.
	if err := fs2.Pool().Flush(); err != nil {
		t.Fatal(err)
	}
	corruptOnDisk(t, p2, 64, 0, 13)
	if err := fs2.Pool().Reset(context.Background()); err != nil { // drop cached frames so reads see the damage
		t.Fatal(err)
	}
	if err := pageErr(fs2, 0, false); !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("one-page scrub after corruption = %v, want ErrCorruptPage", err)
	}
	if err := pageErr(fs2, 0, true); err != nil {
		t.Fatalf("repair after write: %v", err)
	}
	var got []string
	if err := fs2.ReadCellCtx(context.Background(), 0, func(rec []byte) error {
		got = append(got, string(rec))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"cell000-r00", "cell000-r01"}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("repaired cell 0 reads %v, want %v", got, want)
	}
	// A patch failure degrades instead of corrupting: detach simulation via
	// rebuild keeps the sidecar usable either way.
	if err := fs2.WriteParity(ParityPath(p2), 4); err != nil {
		t.Fatal(err)
	}
	if !fs2.HasParity() {
		t.Error("rebuilt parity not usable")
	}
}

// TestRepairCtxSweep: RepairCtx heals a scattered set of single faults in
// one pass and reports an unrepairable double fault without aborting.
func TestRepairCtxSweep(t *testing.T) {
	const pageSize = 64
	const group = 4
	fs, path, truth := parityFixture(t, pageSize, group)
	total := fs.Layout().TotalPages()
	if total < 2*group {
		t.Fatalf("fixture spans %d pages, want at least two groups", total)
	}
	// Single faults in group 0 and group 1; double fault in the last group.
	corruptOnDisk(t, path, pageSize, 0, 3)
	corruptOnDisk(t, path, pageSize, group+1, 4)
	last := (total - 1) / group * group
	wantFailed := false
	if last+1 < total && last >= 2*group {
		corruptOnDisk(t, path, pageSize, last, 5)
		corruptOnDisk(t, path, pageSize, last+1, 6)
		wantFailed = true
	}
	rep, err := fs.RepairCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repaired) < 2 {
		t.Errorf("sweep repaired %v, want at least pages 0 and %d", rep.Repaired, group+1)
	}
	if wantFailed {
		if len(rep.Failed) != 2 {
			t.Fatalf("sweep failed list = %v, want both halves of the double fault", rep.Failed)
		}
		for _, p := range rep.Failed {
			if !errors.Is(p.Err, ErrUnrepairable) {
				t.Errorf("failed entry %v is not typed ErrUnrepairable", p)
			}
		}
		// Un-flip and re-sweep: everything must converge clean.
		corruptOnDisk(t, path, pageSize, last, 5)
		corruptOnDisk(t, path, pageSize, last+1, 6)
		rep, err = fs.RepairCtx(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("second sweep still failing: %v", rep.Failed)
		}
	}
	vrep, err := fs.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !vrep.OK() {
		t.Fatalf("post-sweep scrub: %v", vrep.Err())
	}
	assertTruth(t, fs, truth)
}

// TestRepairCtxWalksRepairedPage: the sweep walks a page's cells from its
// repaired image, so framing damage parity cannot undo lands in Failed,
// word for word the problem a scrub reports afterwards.
func TestRepairCtxWalksRepairedPage(t *testing.T) {
	const pageSize = 64
	fs, path, _ := parityFixture(t, pageSize, 4)
	lo := fs.dir[1].start
	if err := fs.pool.WriteAt([]byte{0xff, 0xff, 0xff, 0x7f}, lo); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteParity(ParityPath(path), 4); err != nil {
		t.Fatal(err)
	}
	page := lo / fs.layout.usable()
	corruptOnDisk(t, path, pageSize, page, 3)
	rep, err := fs.RepairCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	vrep, err := fs.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repaired) != 1 || rep.Repaired[0] != page || len(rep.Failed) != 1 || len(vrep.Problems) != 1 ||
		rep.Failed[0].String() != vrep.Problems[0].String() {
		t.Fatalf("sweep repaired %v, failed %v; scrub after it: %v", rep.Repaired, rep.Failed, vrep.Problems)
	}
}

// TestMigrateRepairsCorruptSource: a corrupt page in the source store no
// longer strands a migration — MigrateCtx repairs it from the parity
// sidecar, retries the cell, and the new generation carries the complete,
// correct data.
func TestMigrateRepairsCorruptSource(t *testing.T) {
	const pageSize = 64
	fs, path, truth := parityFixture(t, pageSize, 4)
	corruptOnDisk(t, path, pageSize, 2, 11)
	corruptOnDisk(t, path, pageSize, 9, 3)
	s := hierarchy.MustSchema(hierarchy.Uniform("A", 2, 2), hierarchy.Uniform("B", 1, 6))
	newOrder, err := linear.RowMajor(s, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(t.TempDir(), "migrated.db")
	dst, err := MigrateCtx(context.Background(), fs, newPath, newOrder, 8)
	if err != nil {
		t.Fatalf("MigrateCtx with repairable source corruption = %v, want success", err)
	}
	defer dst.Close()
	assertTruth(t, dst, truth)
	// The source healed as a side effect.
	rep, err := fs.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("source still corrupt after migrate-time repair: %v", rep.Err())
	}
}

// TestMigrateUnrepairableSourceFails: a double fault in the source group
// aborts the migration with a typed ErrUnrepairable and no partial output.
func TestMigrateUnrepairableSourceFails(t *testing.T) {
	const pageSize = 64
	fs, path, _ := parityFixture(t, pageSize, 4)
	corruptOnDisk(t, path, pageSize, 0, 3)
	corruptOnDisk(t, path, pageSize, 1, 9)
	s := hierarchy.MustSchema(hierarchy.Uniform("A", 2, 2), hierarchy.Uniform("B", 1, 6))
	newOrder, err := linear.RowMajor(s, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	newPath := filepath.Join(t.TempDir(), "migrated.db")
	if _, err := MigrateCtx(context.Background(), fs, newPath, newOrder, 8); !errors.Is(err, ErrUnrepairable) {
		t.Fatalf("MigrateCtx with double fault = %v, want ErrUnrepairable", err)
	}
	if _, err := os.Stat(newPath); !os.IsNotExist(err) {
		t.Error("failed migration left a partial output file behind")
	}
}

// TestRepairWithoutParityIsTyped: repairing a damaged page of a store that
// never attached a sidecar fails with the typed ErrNoParity.
func TestRepairWithoutParityIsTyped(t *testing.T) {
	o := testOrder(t)
	bytesPerCell := make([]int64, o.Len())
	for c := range bytesPerCell {
		bytesPerCell[c] = FrameSize(11)
	}
	dir := t.TempDir()
	fs, err := CreateFileStore(filepath.Join(dir, "f.db"), o, bytesPerCell, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	corruptOnDisk(t, filepath.Join(dir, "f.db"), 64, 0, 3)
	if err := pageErr(fs, 0, true); !errors.Is(err, ErrNoParity) {
		t.Errorf("repairing a damaged page without sidecar = %v, want ErrNoParity", err)
	}
}

// TestAttachParityValidatesGeometry: a sidecar from a different store (or
// page size) is rejected at attach time.
func TestAttachParityValidatesGeometry(t *testing.T) {
	fs, path, _ := parityFixture(t, 64, 4)
	// Build a second, smaller store and try to attach the first's sidecar.
	s := hierarchy.MustSchema(hierarchy.Binary("A", 1), hierarchy.Binary("B", 1))
	o, err := linear.RowMajor(s, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	bytesPerCell := []int64{64, 64, 64, 64}
	dir := t.TempDir()
	fs2, err := CreateFileStore(filepath.Join(dir, "small.db"), o, bytesPerCell, 64, 8)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if err := fs2.AttachParity(ParityPath(path)); err == nil {
		t.Error("attach of a mismatched sidecar succeeded, want geometry error")
	}
	_ = fs
}
