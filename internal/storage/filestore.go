package storage

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/linear"
)

// FileStore is the queryable packed fact table: records are packed along
// the layout into a PageFile and all access goes through a BufferPool, so
// real page traffic (pool misses) can be compared against the analytic
// seek/page model. Between the pool and the file sits a
// ChecksumFile, so every pool miss verifies the page's CRC32C trailer and
// surfaces silent corruption as ErrCorruptPage.
//
// Concurrency contract: a FileStore may be shared freely across
// goroutines. Reads (ReadPlanCtx, ReadPlanCellsCtx, ReadCellCtx, Verify)
// run concurrently with each other under a read lock; writers (PutRecord,
// Close) are exclusive. Close is safe to call while readers are in flight:
// it waits for them to drain, and any operation issued after (or a second
// Close) fails with the typed ErrClosed instead of racing on the
// underlying file. Context-accepting methods check cancellation between
// page accesses, so a cancelled query stops seeking immediately.
type FileStore struct {
	layout *Layout
	file   *ChecksumFile // the pool's backing store; Verify reads it directly
	pool   *BufferPool

	mu     sync.RWMutex // guards dir's fills, epoch, fillEpoch and closed
	dir    []dirEntry   // the layout's cell directory; this store owns the fills
	closed bool

	// Self-healing state (parity.go): the attached parity sidecar and the
	// mutex serializing repairs and sidecar swaps. repairMu guards the
	// parity pointer and the stale flag; fs.mu (read) is held across every
	// parity operation so Close cannot race a repair.
	repairMu    sync.Mutex
	parity      *parityState
	parityClock uint64 // counts sidecar attaches and group patches (ParityWrites)

	// epoch counts base writes (PutRecord, AppendBytes, PutCellBytes);
	// guarded by mu. A QueryPlan's seek runs depend on which cells are
	// filled, so it is valid only for the epoch it was planned under (see
	// plan.go). fillEpoch counts the writes among them that changed a cell's
	// fill, which is what a persisted LoadedBytes copy goes stale by.
	epoch, fillEpoch uint64

	// Read executor state (exec.go): the optional per-fragment completion
	// observer.
	fragObs atomic.Pointer[func(pagesRead int64, seconds float64)]

	rowCount atomic.Pointer[func(rec []byte) int] // the scrub walk's (SetRowCounter)

	// Prepared-plan cache: region → plan. Plans are immutable, so concurrent
	// queries share one entry; an entry from an older epoch is replaced at
	// its next lookup. Guarded by planMu, not fs.mu: the cache is touched
	// under fs.mu's read lock from many queries at once.
	planMu      sync.Mutex
	planCache   map[string]*QueryPlan
	planInvCell atomic.Int64 // stale entries replaced after a write
	planInvAll  atomic.Int64 // entries dropped by the overflow drop-all

	// Delta overlay (merge-on-read): when set, reads consult it per cell
	// before touching base pages, and a hit substitutes the overlay's framed
	// bytes for the cell's base content. Swapped atomically so readers never
	// block on ingest; the function itself must be safe for concurrent use.
	overlay atomic.Pointer[func(cell int) ([]byte, bool)]
}

// CreateFileStore creates a new page file sized for the layout and wraps it
// in a checksumming pool with the given frame capacity.
func CreateFileStore(path string, o *linear.Order, bytesPerCell []int64, pageSize int, poolFrames int) (*FileStore, error) {
	layout, err := NewFileLayout(o, bytesPerCell, int64(pageSize))
	if err != nil {
		return nil, err
	}
	pf, err := CreatePageFile(path, pageSize, layout.TotalPages())
	if err != nil {
		return nil, err
	}
	fs, err := newFileStore(pf, layout, poolFrames, nil)
	if err != nil {
		pf.Close()
		return nil, err
	}
	return fs, nil
}

// OpenFileStore opens an existing store file. The caller supplies the same
// order and cell sizes the file was created with plus the per-cell written
// byte counts saved from FileStore.LoadedBytes (persist them with the
// catalog); nil loadedBytes opens the store as empty. Geometry and fill
// state are validated against the file instead of being trusted; neither
// slice is retained.
func OpenFileStore(path string, o *linear.Order, bytesPerCell []int64, pageSize int, poolFrames int, loadedBytes []int64) (*FileStore, error) {
	pf, err := OpenPageFile(path, pageSize)
	if err != nil {
		return nil, err
	}
	fs, err := NewFileStoreOn(pf, o, bytesPerCell, poolFrames, loadedBytes)
	if err != nil {
		pf.Close()
		return nil, fmt.Errorf("storage: opening %s: %w", path, err)
	}
	return fs, nil
}

// NewFileStoreOn wires a store over an already-open paged file — the hook
// for fault-injection tests and custom stacks. The file's page count must
// match the layout exactly, and each cell's loaded bytes must fit its
// reserved range; any mismatch is an error, never a silent assumption.
func NewFileStoreOn(pf PagedFile, o *linear.Order, bytesPerCell []int64, poolFrames int, loadedBytes []int64) (*FileStore, error) {
	layout, err := NewFileLayout(o, bytesPerCell, int64(pf.PageSize()))
	if err != nil {
		return nil, err
	}
	return newFileStore(pf, layout, poolFrames, loadedBytes)
}

// newFileStore takes over the layout's directory: the fills it validates go
// into it. The pool comes last, so no error path leaves a slab mapped.
func newFileStore(pf PagedFile, layout *Layout, poolFrames int, loadedBytes []int64) (*FileStore, error) {
	if pf.Pages() != layout.TotalPages() {
		return nil, fmt.Errorf("storage: file has %d pages, layout needs exactly %d", pf.Pages(), layout.TotalPages())
	}
	cf, err := NewChecksumFile(pf)
	if err != nil {
		return nil, err
	}
	dir := layout.dir
	if loadedBytes != nil {
		if len(loadedBytes) != len(dir)-1 {
			return nil, fmt.Errorf("storage: %d loaded sizes for %d cells", len(loadedBytes), len(dir)-1)
		}
		for pos := range loadedBytes {
			e := &dir[pos]
			b := loadedBytes[e.cell]
			if reserved := dir[pos+1].start - e.start; b < 0 || b > reserved {
				return nil, fmt.Errorf("storage: cell %d claims %d loaded bytes, reserved range holds %d", e.cell, b, reserved)
			}
			e.fill = uint32(b)
		}
	}
	pool, err := NewBufferPool(cf, poolFrames)
	if err != nil {
		return nil, err
	}
	return &FileStore{layout: layout, file: cf, pool: pool, dir: dir}, nil
}

// Layout returns the store's packing.
func (fs *FileStore) Layout() *Layout { return fs.layout }

// Pool returns the store's buffer pool, for stats and flushing.
func (fs *FileStore) Pool() *BufferPool { return fs.pool }

// LoadedBytes returns the written byte count per cell, the value to pass
// back to OpenFileStore after a restart.
func (fs *FileStore) LoadedBytes() []int64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	cells := fs.dir[:len(fs.dir)-1]
	out := make([]int64, len(cells))
	for _, e := range cells {
		out[e.cell] = int64(e.fill)
	}
	return out
}

// FillEpoch counts the writes that changed some cell's fill. While it stands
// still, a LoadedBytes snapshot taken earlier is still exact.
func (fs *FileStore) FillEpoch() uint64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.fillEpoch
}

// PutRecord appends a length-prefixed record to the cell, through the pool.
func (fs *FileStore) PutRecord(cell int, payload []byte) error {
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	return fs.appendBytes(cell, hdr[:], payload)
}

// AppendBytes appends b to the cell's content as it is, through the pool:
// a caller that writes one record in pieces writes its frame header first,
// declaring the payload length (see FrameSize), and then that many bytes in
// as many calls as it likes. Until the last piece lands the cell ends in a
// partial record, which a read or scrub reports as broken framing.
func (fs *FileStore) AppendBytes(cell int, b []byte) error {
	return fs.appendBytes(cell, b, nil)
}

// appendBytes appends a, then b, to the cell.
func (fs *FileStore) appendBytes(cell int, a, b []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	pos := fs.layout.order.PosOf(cell)
	e := &fs.dir[pos]
	lo, hi := e.start, fs.dir[pos+1].start
	need := int64(len(a) + len(b))
	off := lo + int64(e.fill)
	if off+need > hi {
		return fmt.Errorf("storage: cell %d overflows its %d reserved bytes", cell, hi-lo)
	}
	old := fs.capturePreWrite(off, need)
	if err := fs.pool.WriteAt(a, off); err != nil {
		return err
	}
	if err := fs.pool.WriteAt(b, off+int64(len(a))); err != nil {
		return err
	}
	e.fill += uint32(need)
	fs.fillEpoch++
	if old != nil {
		fs.patchParity(off, old, append(append(make([]byte, 0, need), a...), b...))
	}
	fs.epoch++
	return nil
}

// PutCellBytes replaces the entire record content of a cell with framed —
// a sequence of length-prefixed records (see FrameRecords) — resetting the
// cell's fill to len(framed). Shrinking zeroes the abandoned tail so record
// framing never resurrects stale bytes. The replace is idempotent: applying
// the same bytes twice converges to the same state, which is what makes the
// delta log's redo-on-recovery protocol safe. Like PutRecord, the write
// patches an attached parity sidecar in place and moves the write epoch,
// so plans prepared before it are re-planned.
func (fs *FileStore) PutCellBytes(cell int, framed []byte) error {
	if err := walkRecords(cell, framed, func(int, []byte) error { return nil }); err != nil {
		return fmt.Errorf("storage: PutCellBytes rejects malformed framing: %w", err)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	pos := fs.layout.order.PosOf(cell)
	e := &fs.dir[pos]
	lo, hi := e.start, fs.dir[pos+1].start
	need := int64(len(framed))
	if need > hi-lo {
		return fmt.Errorf("storage: cell %d replacement of %d bytes overflows its %d reserved bytes", cell, need, hi-lo)
	}
	oldFill := int64(e.fill)
	span := need
	if oldFill > span {
		span = oldFill
	}
	old := fs.capturePreWrite(lo, span)
	if need > 0 {
		if err := fs.pool.WriteAt(framed, lo); err != nil {
			return err
		}
	}
	if oldFill > need {
		// Zero the abandoned tail: fill is authoritative, but scrubbing and
		// parity work on whole pages, so stale bytes must not linger.
		zeros := make([]byte, oldFill-need)
		if err := fs.pool.WriteAt(zeros, lo+need); err != nil {
			return err
		}
	}
	if need != oldFill {
		e.fill = uint32(need)
		fs.fillEpoch++
	}
	if old != nil {
		neu := make([]byte, span)
		copy(neu, framed)
		fs.patchParity(lo, old, neu)
	}
	fs.epoch++
	return nil
}

// FrameSize returns the stored size of a payload of the given length under
// the store's length-prefixed record framing, for sizing bytesPerCell.
func FrameSize(payloadLen int) int64 { return int64(4 + payloadLen) }

// FrameRecords packs records into the store's length-prefixed cell framing
// — the byte shape PutCellBytes replaces a cell with and walkRecords parses.
func FrameRecords(records ...[]byte) []byte {
	n := int64(0)
	for _, rec := range records {
		n += FrameSize(len(rec))
	}
	buf := make([]byte, 0, n)
	var hdr [4]byte
	for _, rec := range records {
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(rec)))
		buf = append(buf, hdr[:]...)
		buf = append(buf, rec...)
	}
	return buf
}

// SetOverlay installs (or, with nil, removes) the delta overlay consulted
// by every read path: a function returning the freshest framed content for
// a cell, or ok=false when the base file is current. The ingest layer's
// delta-log index is the intended implementation. The function must be
// safe for concurrent calls and the returned bytes immutable; readers
// parse them without copying.
func (fs *FileStore) SetOverlay(f func(cell int) ([]byte, bool)) {
	if f == nil {
		fs.overlay.Store(nil)
		return
	}
	fs.overlay.Store(&f)
}

// overlayFn returns the installed overlay, or nil.
func (fs *FileStore) overlayFn() func(cell int) ([]byte, bool) {
	if p := fs.overlay.Load(); p != nil {
		return *p
	}
	return nil
}

// capturePreWrite returns the current logical bytes of [off, off+n) when a
// live parity sidecar is attached — the "read old" half of the XOR patch —
// or nil when there is no sidecar to maintain. A failure to read the old
// bytes degrades the sidecar to stale (its content can no longer be kept
// consistent) rather than failing the caller's write.
func (fs *FileStore) capturePreWrite(off, n int64) []byte {
	fs.repairMu.Lock()
	live := fs.parity != nil && !fs.parity.stale
	fs.repairMu.Unlock()
	if !live {
		return nil
	}
	old := make([]byte, n)
	if err := fs.pool.ReadAtCtx(context.Background(), old, off); err != nil {
		fs.degradeParity()
		return nil
	}
	return old
}

// patchParity folds old⊕new into the parity page(s) covering [off,
// off+len(new)) — the in-place alternative to rebuilding the whole sidecar
// on every write, keeping self-healing live under ingest. Parity tracks the
// store's logical content (the pool included); a repair flushes the pool
// before reconstructing so the on-disk siblings it XORs match. Any patch
// failure degrades the sidecar to stale instead of failing the write: the
// data write has already succeeded, and a stale sidecar is exactly the
// pre-patch behavior. Callers hold fs.mu exclusively, so patches never
// race repairs (which hold it shared).
func (fs *FileStore) patchParity(off int64, old, neu []byte) {
	fs.repairMu.Lock()
	defer fs.repairMu.Unlock()
	ps := fs.parity
	if ps == nil || ps.stale {
		return
	}
	u := fs.layout.usable()
	k := int64(ps.group)
	buf := make([]byte, u)
	n := int64(len(neu))
	for i := int64(0); i < n; {
		page := (off + i) / u
		j := (off + i) % u
		run := u - j
		if run > n-i {
			run = n - i
		}
		changed := false
		for b := int64(0); b < run; b++ {
			if old[i+b] != neu[i+b] {
				changed = true
				break
			}
		}
		if changed {
			if ps.changed == nil {
				ps.changed = make(map[int64]uint64)
			}
			fs.parityClock++
			ps.changed[page/k] = fs.parityClock
			pp := 1 + page/k
			if err := ps.file.ReadPage(pp, buf); err != nil {
				ps.stale = true
				return
			}
			for b := int64(0); b < run; b++ {
				buf[j+b] ^= old[i+b] ^ neu[i+b]
			}
			if err := ps.file.WritePage(pp, buf); err != nil {
				ps.stale = true
				return
			}
		}
		i += run
	}
}

// degradeParity marks an attached sidecar stale: repair is refused until
// WriteParity rebuilds it.
func (fs *FileStore) degradeParity() {
	fs.repairMu.Lock()
	if fs.parity != nil {
		fs.parity.stale = true
	}
	fs.repairMu.Unlock()
}

// Close flushes the pool, unmaps its frames and closes the file. A flush or
// sync failure is reported — never swallowed — and the file is closed
// regardless, so a caller that sees an error knows the on-disk state may be
// behind. Close waits for in-flight readers to drain before touching the
// file or the frames; once it begins, every later operation (including a
// second Close) returns ErrClosed.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrClosed
	}
	fs.closed = true
	err := fs.pool.Flush()
	fs.repairMu.Lock()
	if fs.parity != nil {
		fs.parity.inner.Close()
		fs.parity = nil
	}
	fs.repairMu.Unlock()
	return errors.Join(err, fs.discard())
}

// discard releases the frames and the file without writing anything back.
func (fs *FileStore) discard() error {
	return errors.Join(fs.pool.Close(), fs.file.Close())
}
