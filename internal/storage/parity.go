package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Parity sidecar: the self-healing layer of the file store. Beside every
// store file lives <store>.parity, holding one XOR parity page per group of
// DefaultParityGroup (or a caller-chosen K) consecutive data pages. Parity
// covers the logical data region of each page — the bytes above the CRC32C
// trailer — so reconstruction rewrites a damaged page *through* the
// ChecksumFile and gets a fresh trailer for free. The sidecar is itself a
// checksummed page file (header page + parity pages), so damage to the
// parity is detected the same way damage to the data is, and it is written
// atomically (temp file, fsync, rename), so a crash mid-build leaves either
// the old sidecar or the new one, never a torn mix.
//
// The recovery guarantee is the classic RAID-4 one: any single bad page per
// group is reconstructible from the surviving K−1 pages plus parity; two or
// more bad pages in one group (or a bad parity page plus a bad data page)
// are not, and surface as the typed ErrUnrepairable with the coordinates of
// everything damaged.

// DefaultParityGroup is the default number of data pages per parity page.
// Smaller groups tolerate denser damage and repair faster (fewer sibling
// reads) at the cost of proportionally more sidecar space: K=8 spends 1/8
// of the store's size to survive any single-page fault per 8-page stripe.
const DefaultParityGroup = 8

// parityMagic marks a parity sidecar header ("SNKP").
const parityMagic uint32 = 0x50_4B_4E_53

// parityVersion is the current sidecar format.
const parityVersion = 1

// ErrUnrepairable marks a page that parity-based repair cannot reconstruct:
// two or more pages of its parity group are damaged (or the parity page
// itself is), exceeding the single-fault budget of XOR parity. Errors
// carrying the damage coordinates are UnrepairableError values; both match
// with errors.Is(err, ErrUnrepairable).
var ErrUnrepairable = errors.New("storage: page unrepairable")

// ErrNoParity marks a repair attempted on a store with no (or a stale)
// parity sidecar attached; match with errors.Is.
var ErrNoParity = errors.New("storage: no parity sidecar attached")

// UnrepairableError reports a page that could not be reconstructed, with
// the coordinates of everything damaged in its parity group: the physical
// page indexes, the group, and — when the page holds cell data — the first
// cell and its grid coordinates.
type UnrepairableError struct {
	Page     int64   // the page repair was asked for
	Group    int64   // its parity group (Page / group size)
	BadPages []int64 // every damaged page found in the group, sorted
	Cell     int     // first cell with data on Page; -1 when none
	Coords   []int   // the cell's leaf coordinates, nil when Cell is -1
	Reason   string
}

func (e *UnrepairableError) Error() string {
	loc := fmt.Sprintf("storage: page %d (parity group %d", e.Page, e.Group)
	if e.Cell >= 0 {
		loc += fmt.Sprintf(", cell %d @ %v", e.Cell, e.Coords)
	}
	return fmt.Sprintf("%s) unrepairable: %s; damaged pages %v", loc, e.Reason, e.BadPages)
}

// Is makes errors.Is(err, ErrUnrepairable) match.
func (e *UnrepairableError) Is(target error) bool { return target == ErrUnrepairable }

// ParityPath returns the conventional sidecar path for a store file.
func ParityPath(storePath string) string { return storePath + ".parity" }

// parityState is the attached sidecar: its checksummed file, the group
// size it was built with, and a staleness flag. Writes normally keep the
// sidecar live by XOR-patching the affected parity pages in place (see
// FileStore.patchParity); stale is set only when a patch cannot be applied
// — the sidecar then no longer matches the data and must not be used to
// "repair" pages until WriteParity rebuilds it.
type parityState struct {
	file  *ChecksumFile
	inner *PageFile
	group int
	path  string
	stale bool
	// since is the store's parity clock when the sidecar was attached;
	// changed holds, per group a base write has patched since, the clock at
	// its last patch (see ParityWrites).
	since   uint64
	changed map[int64]uint64
}

func (ps *parityState) groups(dataPages int64) int64 {
	k := int64(ps.group)
	return (dataPages + k - 1) / k
}

// parityHeaderSize is the encoded header length: magic, version, group
// (uint32 each), data page count (uint64), page size (uint32). Kept to 24
// bytes so the header fits the usable region of even the smallest pages.
const parityHeaderSize = 24

// encodeParityHeader fills the sidecar's header page data region.
func encodeParityHeader(buf []byte, group int, dataPages, pageSize int64) {
	for i := range buf {
		buf[i] = 0
	}
	binary.LittleEndian.PutUint32(buf[0:], parityMagic)
	binary.LittleEndian.PutUint32(buf[4:], parityVersion)
	binary.LittleEndian.PutUint32(buf[8:], uint32(group))
	binary.LittleEndian.PutUint64(buf[12:], uint64(dataPages))
	binary.LittleEndian.PutUint32(buf[20:], uint32(pageSize))
}

// decodeParityHeader validates a sidecar header against the store's
// geometry and returns the group size.
func decodeParityHeader(buf []byte, dataPages, pageSize int64) (int, error) {
	if len(buf) < parityHeaderSize {
		return 0, fmt.Errorf("storage: parity header needs %d bytes, page holds %d", parityHeaderSize, len(buf))
	}
	if got := binary.LittleEndian.Uint32(buf[0:]); got != parityMagic {
		return 0, fmt.Errorf("storage: bad parity magic %#08x", got)
	}
	if v := binary.LittleEndian.Uint32(buf[4:]); v != parityVersion {
		return 0, fmt.Errorf("storage: unsupported parity version %d", v)
	}
	group := int(binary.LittleEndian.Uint32(buf[8:]))
	if group <= 0 {
		return 0, fmt.Errorf("storage: parity group size %d must be positive", group)
	}
	if got := int64(binary.LittleEndian.Uint64(buf[12:])); got != dataPages {
		return 0, fmt.Errorf("storage: parity covers %d data pages, store has %d", got, dataPages)
	}
	if got := int64(binary.LittleEndian.Uint32(buf[20:])); got != pageSize {
		return 0, fmt.Errorf("storage: parity built for %d-byte pages, store uses %d", got, pageSize)
	}
	return group, nil
}

// HasParity reports whether a usable (attached and non-stale) parity
// sidecar backs repairs.
func (fs *FileStore) HasParity() bool {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.parity != nil && !fs.parity.stale
}

// ParityWrites is a clock reading that moves whenever the parity page
// covering data page page changes: a base write patches its group, or a
// sidecar is attached or rebuilt. A repair of the page that failed fails
// the same way until it moves.
func (fs *FileStore) ParityWrites(page int64) uint64 {
	fs.repairMu.Lock()
	defer fs.repairMu.Unlock()
	ps := fs.parity
	if ps == nil {
		return fs.parityClock
	}
	return max(ps.since, ps.changed[page/int64(ps.group)])
}

// ParityGroup returns the attached sidecar's group size (0 when none).
func (fs *FileStore) ParityGroup() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.parity == nil {
		return 0
	}
	return fs.parity.group
}

// WriteParity builds the parity sidecar at path — one XOR parity page per
// groupSize data pages (DefaultParityGroup when groupSize <= 0) — and
// attaches it to the store, replacing any sidecar attached before. The
// pool is flushed first so parity covers what is actually on disk, the
// sidecar is written to a temp file and renamed into place, and a failure
// leaves any previous sidecar file untouched. Building requires every data
// page to read clean; a corrupt page fails the build with its typed error
// (repair needs parity, so heal — or rebuild the store — first).
func (fs *FileStore) WriteParity(path string, groupSize int) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return ErrClosed
	}
	if groupSize <= 0 {
		groupSize = DefaultParityGroup
	}
	if err := fs.pool.Flush(); err != nil {
		return fmt.Errorf("storage: parity flush: %w", err)
	}
	u := fs.layout.usable()
	if u < parityHeaderSize {
		return fmt.Errorf("storage: %d-byte pages leave %d usable bytes, parity header needs %d", fs.layout.pageSize, u, parityHeaderSize)
	}
	dataPages := fs.layout.TotalPages()
	k := int64(groupSize)
	groups := (dataPages + k - 1) / k
	tmp := path + ".tmp"
	pf, err := CreatePageFile(tmp, int(fs.layout.pageSize), 1+groups)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		pf.Close()
		os.Remove(tmp)
		return err
	}
	cf, err := NewChecksumFile(pf)
	if err != nil {
		return abort(err)
	}
	hdr := make([]byte, u)
	encodeParityHeader(hdr, groupSize, dataPages, fs.layout.pageSize)
	if err := cf.WritePage(0, hdr); err != nil {
		return abort(err)
	}
	acc := make([]byte, u)
	buf := make([]byte, u)
	for g := int64(0); g < groups; g++ {
		for i := range acc {
			acc[i] = 0
		}
		hi := (g + 1) * k
		if hi > dataPages {
			hi = dataPages
		}
		for p := g * k; p < hi; p++ {
			if err := fs.file.ReadPage(p, buf); err != nil {
				return abort(fmt.Errorf("storage: parity build reading page %d: %w", p, err))
			}
			xorInto(acc, buf)
		}
		if err := cf.WritePage(1+g, acc); err != nil {
			return abort(err)
		}
	}
	if err := pf.Sync(); err != nil {
		return abort(err)
	}
	if err := pf.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := SyncDir(filepath.Dir(path)); err != nil {
		return err
	}
	return fs.attachParityLocked(path)
}

// SyncDir fsyncs the directory dir, so that a file created or renamed in it
// survives a crash. A directory that cannot be opened is an error too, not
// a sync skipped.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	return errors.Join(d.Sync(), d.Close())
}

// AttachParity opens an existing parity sidecar and validates it against
// the store's geometry. A sidecar already attached is replaced.
func (fs *FileStore) AttachParity(path string) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return ErrClosed
	}
	return fs.attachParityLocked(path)
}

// attachParityLocked opens and validates the sidecar; callers hold at
// least the store's read lock. The parity pointer itself is guarded by
// repairMu so concurrent attach/repair never race on it.
func (fs *FileStore) attachParityLocked(path string) error {
	pf, err := OpenPageFile(path, int(fs.layout.pageSize))
	if err != nil {
		return err
	}
	cf, err := NewChecksumFile(pf)
	if err != nil {
		pf.Close()
		return err
	}
	hdr := make([]byte, fs.layout.usable())
	if err := cf.ReadPage(0, hdr); err != nil {
		pf.Close()
		return fmt.Errorf("storage: parity header: %w", err)
	}
	group, err := decodeParityHeader(hdr, fs.layout.TotalPages(), fs.layout.pageSize)
	if err != nil {
		pf.Close()
		return err
	}
	want := 1 + (fs.layout.TotalPages()+int64(group)-1)/int64(group)
	if pf.Pages() != want {
		pf.Close()
		return fmt.Errorf("storage: parity sidecar has %d pages, geometry needs %d", pf.Pages(), want)
	}
	fs.repairMu.Lock()
	old := fs.parity
	fs.parityClock++
	fs.parity = &parityState{file: cf, inner: pf, group: group, path: path, since: fs.parityClock}
	fs.repairMu.Unlock()
	if old != nil {
		old.inner.Close()
	}
	return nil
}

// repairPageLocked reconstructs a damaged page from its parity group: XOR
// of the group's parity page and every sibling data page, rewritten through
// the ChecksumFile (fresh trailer) and re-verified from disk into img, one
// usable page of scratch. A page that already reads clean is a no-op, so
// racing repairers are harmless. The typed errors: ErrNoParity when no
// usable sidecar is attached, ErrUnrepairable (an UnrepairableError with
// coordinates) when more than one page of the group — or the parity page
// itself — is damaged, or when the reconstruction fails re-verification.
// The caller holds fs.mu for reading; repairs are serialized by repairMu
// but run beside queries: the reconstruction restores the page's original
// bytes, so any clean frame the pool caches stays consistent.
func (fs *FileStore) repairPageLocked(page int64, img []byte) error {
	fs.repairMu.Lock()
	defer fs.repairMu.Unlock()
	ps := fs.parity
	if ps == nil {
		return ErrNoParity
	}
	if ps.stale {
		return fmt.Errorf("%w: sidecar %s predates writes to the store; rebuild parity first", ErrNoParity, ps.path)
	}
	// Writes keep parity in sync with the store's *logical* content (the
	// XOR patch reads pre-write bytes through the pool), so before XOR-ing
	// on-disk sibling pages the pool's dirty frames must reach disk.
	if err := fs.pool.Flush(); err != nil {
		return fmt.Errorf("storage: pre-repair flush: %w", err)
	}
	if err := fs.file.ReadPage(page, img); err == nil {
		return nil // already clean: nothing to repair
	} else if !errors.Is(err, ErrCorruptPage) {
		return err // transient or positional failure: not parity's problem
	}
	k := int64(ps.group)
	g := page / k
	unrepairable := func(bad []int64, reason string) error {
		sort.Slice(bad, func(i, j int) bool { return bad[i] < bad[j] })
		cell, coords := fs.cellOnPage(page)
		return &UnrepairableError{Page: page, Group: g, BadPages: bad, Cell: cell, Coords: coords, Reason: reason}
	}
	acc := make([]byte, len(img))
	if err := ps.file.ReadPage(1+g, acc); err != nil {
		if errors.Is(err, ErrCorruptPage) {
			return unrepairable([]int64{page}, "parity page is itself damaged")
		}
		return err
	}
	hi := (g + 1) * k
	if hi > fs.layout.TotalPages() {
		hi = fs.layout.TotalPages()
	}
	bad := []int64{page}
	for p := g * k; p < hi; p++ {
		if p == page {
			continue
		}
		if err := fs.file.ReadPage(p, img); err != nil {
			if errors.Is(err, ErrCorruptPage) {
				bad = append(bad, p)
				continue
			}
			return err
		}
		xorInto(acc, img)
	}
	if len(bad) > 1 {
		return unrepairable(bad, fmt.Sprintf("%d damaged pages share one parity group; XOR parity recovers at most one", len(bad)))
	}
	if err := fs.file.WritePage(page, acc); err != nil {
		return fmt.Errorf("storage: repair rewrite of page %d: %w", page, err)
	}
	if err := fs.file.Sync(); err != nil {
		return fmt.Errorf("storage: repair sync of page %d: %w", page, err)
	}
	if err := fs.file.ReadPage(page, img); err != nil {
		return unrepairable([]int64{page}, fmt.Sprintf("reconstruction failed re-verification: %v", err))
	}
	return nil
}

// RepairReport is the outcome of a RepairCtx sweep.
type RepairReport struct {
	Pages    int64   // pages scanned
	Repaired []int64 // pages reconstructed and re-verified
	Failed   []VerifyProblem
}

// OK reports whether the sweep left the store clean.
func (r *RepairReport) OK() bool { return len(r.Failed) == 0 }

// RepairCtx is the repairing scrub window over every page: a page that
// fails its checksum is repaired from parity under the walk's read lock,
// and its cells are walked from the repaired image. What repair cannot fix
// — a page it could not reconstruct, with its typed error, or fill and
// framing damage — lands in Failed, in VerifyReport order. The error is
// VerifyCtx's; the sweep is a scrub span with one repair child per damaged
// page.
func (fs *FileStore) RepairCtx(ctx context.Context) (*RepairReport, error) {
	rep, err := fs.ScrubRange(ctx, ScrubCursor{}, fs.layout.TotalPages(), true)
	return &RepairReport{Pages: rep.Pages, Repaired: rep.Repaired, Failed: rep.Problems}, err
}

// xorInto accumulates src into dst byte-wise.
func xorInto(dst, src []byte) {
	for i := range dst {
		dst[i] ^= src[i]
	}
}
