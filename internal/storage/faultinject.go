package storage

import (
	"errors"
	"fmt"
	"sync"
)

// ErrInjected marks an error manufactured by a FaultInjector, so tests can
// tell deliberate faults from real I/O failures.
var ErrInjected = errors.New("injected fault")

// FaultOp selects which operation class a fault applies to.
type FaultOp int

const (
	OpRead FaultOp = iota
	OpWrite
	OpSync
	numFaultOps
)

func (op FaultOp) String() string {
	switch op {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	}
	return fmt.Sprintf("FaultOp(%d)", int(op))
}

// FaultKind is what happens when a fault fires.
type FaultKind int

const (
	// FaultTransient fails the operation with an error matching
	// ErrTransient; a retry (which is a new operation with the next index)
	// succeeds once past the fault's Repeat window.
	FaultTransient FaultKind = iota
	// FaultPermanent fails the operation with a non-retryable error.
	FaultPermanent
	// FaultTorn applies to writes: only the first half of the page reaches
	// the inner file (the tail keeps its previous bytes, as after a power
	// cut mid-sector) and the operation reports a permanent error.
	FaultTorn
	// FaultBitFlip applies to reads: the operation "succeeds" but one
	// deterministically chosen bit of the returned page is flipped —
	// silent corruption only a checksum can catch. On writes the flipped
	// page is silently persisted.
	FaultBitFlip
)

func (k FaultKind) String() string {
	switch k {
	case FaultTransient:
		return "transient"
	case FaultPermanent:
		return "permanent"
	case FaultTorn:
		return "torn"
	case FaultBitFlip:
		return "bitflip"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault schedules one failure: the Index-th operation of kind Op (0-based,
// counted per operation class) fails with Kind. Transient faults repeat for
// Repeat consecutive operations (default 1), so a pool whose retry budget
// exceeds Repeat rides them out.
type Fault struct {
	Op     FaultOp
	Index  int64
	Kind   FaultKind
	Repeat int
}

func (f Fault) window() int64 {
	if f.Kind == FaultTransient && f.Repeat > 1 {
		return int64(f.Repeat)
	}
	return 1
}

// FaultInjector wraps a PagedFile with a deterministic failure schedule.
// Every behavior — which operation fails, how, and which bit a flip lands
// on — is a pure function of the schedule and the seed, so a failing
// single-threaded run replays exactly. It also counts operations, so a
// test can run a workload once cleanly, read Ops, and then re-run it
// injecting a fault at every index. A mutex serializes operations, so the
// injector is safe to place under a concurrent BufferPool; under
// concurrency the interleaving (and thus which goroutine draws each fault)
// is scheduling-dependent, but the fault schedule itself still fires
// exactly once per scheduled index.
type FaultInjector struct {
	inner    PagedFile
	seed     int64
	faults   []Fault
	mu       sync.Mutex
	counts   [numFaultOps]int64
	injected int64
}

// NewFaultInjector wraps inner with the given fault schedule. The seed
// only influences bit-flip positions.
func NewFaultInjector(inner PagedFile, seed int64, faults ...Fault) *FaultInjector {
	return &FaultInjector{inner: inner, seed: seed, faults: faults}
}

// Ops returns how many operations of the class have been issued so far.
func (fi *FaultInjector) Ops(op FaultOp) int64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.counts[op]
}

// Injected returns how many faults have fired.
func (fi *FaultInjector) Injected() int64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.injected
}

// match returns the scheduled fault covering this operation, if any.
func (fi *FaultInjector) match(op FaultOp, idx int64) *Fault {
	for i := range fi.faults {
		f := &fi.faults[i]
		if f.Op == op && idx >= f.Index && idx < f.Index+f.window() {
			return f
		}
	}
	return nil
}

// bitFor picks the deterministic bit position for a flip (splitmix64-style
// mixing of seed and operation index).
func (fi *FaultInjector) bitFor(idx int64, bits int) int {
	x := uint64(fi.seed)*0x9E3779B97F4A7C15 + uint64(idx) + 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int(x % uint64(bits))
}

// PageSize returns the inner page size.
func (fi *FaultInjector) PageSize() int { return fi.inner.PageSize() }

// Pages returns the inner page count.
func (fi *FaultInjector) Pages() int64 { return fi.inner.Pages() }

// ReadPages reads through in one inner call, drawing one read index per
// page in page order, so Ops(OpRead) counts pages. A transient or permanent
// fault fails the read at its page, and the pages behind it draw no index; a
// bit flip lands in its page's bytes once the span is in.
func (fi *FaultInjector) ReadPages(page int64, bufs ...[]byte) error {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	ps := fi.inner.PageSize()
	first := fi.counts[OpRead]
	for _, buf := range bufs {
		for off := 0; off < len(buf); off += ps {
			idx := fi.counts[OpRead]
			fi.counts[OpRead]++
			f := fi.match(OpRead, idx)
			if f == nil {
				continue
			}
			fi.injected++
			switch f.Kind {
			case FaultBitFlip: // lands once the read is in
			case FaultTransient:
				return fmt.Errorf("read op %d on page %d: %w: %w", idx, page+idx-first, ErrInjected, ErrTransient)
			default:
				return fmt.Errorf("read op %d on page %d: %w", idx, page+idx-first, ErrInjected)
			}
		}
	}
	if err := fi.inner.ReadPages(page, bufs...); err != nil {
		return err
	}
	idx := first
	for _, buf := range bufs {
		for off := 0; off < len(buf); off += ps {
			if f := fi.match(OpRead, idx); f != nil && f.Kind == FaultBitFlip {
				bit := fi.bitFor(idx, ps*8)
				buf[off+bit/8] ^= 1 << (bit % 8)
			}
			idx++
		}
	}
	return nil
}

// WritePage writes through, applying any scheduled write fault.
func (fi *FaultInjector) WritePage(page int64, buf []byte) error {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	idx := fi.counts[OpWrite]
	fi.counts[OpWrite]++
	f := fi.match(OpWrite, idx)
	if f == nil {
		return fi.inner.WritePage(page, buf)
	}
	fi.injected++
	switch f.Kind {
	case FaultTransient:
		return fmt.Errorf("write op %d on page %d: %w: %w", idx, page, ErrInjected, ErrTransient)
	case FaultTorn:
		// Persist only the first half; the tail keeps whatever the file
		// held before, like a sector-aligned power cut.
		torn := make([]byte, len(buf))
		if err := fi.inner.ReadPages(page, torn); err != nil {
			copy(torn, make([]byte, len(buf)))
		}
		copy(torn[:len(buf)/2], buf[:len(buf)/2])
		if err := fi.inner.WritePage(page, torn); err != nil {
			return err
		}
		return fmt.Errorf("torn write op %d on page %d: %w", idx, page, ErrInjected)
	case FaultBitFlip:
		flipped := make([]byte, len(buf))
		copy(flipped, buf)
		bit := fi.bitFor(idx, len(buf)*8)
		flipped[bit/8] ^= 1 << (bit % 8)
		return fi.inner.WritePage(page, flipped)
	default:
		return fmt.Errorf("write op %d on page %d: %w", idx, page, ErrInjected)
	}
}

// Sync syncs through, applying any scheduled sync fault.
func (fi *FaultInjector) Sync() error {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	idx := fi.counts[OpSync]
	fi.counts[OpSync]++
	f := fi.match(OpSync, idx)
	if f == nil {
		return fi.inner.Sync()
	}
	fi.injected++
	if f.Kind == FaultTransient {
		return fmt.Errorf("sync op %d: %w: %w", idx, ErrInjected, ErrTransient)
	}
	return fmt.Errorf("sync op %d: %w", idx, ErrInjected)
}

// Close closes the inner file.
func (fi *FaultInjector) Close() error { return fi.inner.Close() }
