package storage

import (
	"errors"
	"fmt"
	"time"
)

// PagedFile is the abstract fixed-page-size file the storage stack is built
// on: PageFile implements it against a real file, FaultInjector wraps any
// implementation with deterministic failures, and ChecksumFile layers a
// CRC32C trailer on top. Implementations must be safe for concurrent use of
// ReadPages/WritePage/Sync: the BufferPool above them issues page loads and
// write-backs from many goroutines at once. Close may assume no concurrent
// operations (the FileStore's closed flag provides that guarantee).
type PagedFile interface {
	// PageSize returns the page size in bytes as seen by callers of
	// ReadPages/WritePage (wrappers may expose a smaller logical page than
	// the file underneath them).
	PageSize() int
	// Pages returns the number of pages in the file.
	Pages() int64
	// ReadPages fills bufs, each a whole number of PageSize units, with the
	// consecutive pages starting at page: the only read in the stack, so a
	// span of pages and a single page take the same path.
	ReadPages(page int64, bufs ...[]byte) error
	// WritePage writes buf (of exactly PageSize bytes) to the page.
	WritePage(page int64, buf []byte) error
	// Sync flushes buffered writes to stable storage.
	Sync() error
	// Close releases the file. Close does not imply Sync.
	Close() error
}

// MaxSpanPages bounds one read: the buffer pool never asks for more pages
// than this in a single ReadPages call, so ChecksumFile sizes its pooled
// scratch to MaxSpanPages physical pages and refuses longer spans.
const MaxSpanPages = 32

// ErrTransient marks an I/O error as retryable: the buffer pool retries
// operations whose error chain matches it (errors.Is) under its RetryPolicy
// before giving up. Real disks surface these as EINTR/EAGAIN-style hiccups;
// the FaultInjector manufactures them on demand.
var ErrTransient = errors.New("transient I/O error")

// ErrCorruptPage marks a page that failed checksum or format verification.
// Errors carrying page detail are CorruptPageError values; both match with
// errors.Is(err, ErrCorruptPage).
var ErrCorruptPage = errors.New("corrupt page")

// CorruptPageError reports a page that failed verification, with enough
// detail to locate it on disk.
type CorruptPageError struct {
	Page   int64  // physical page index in the file
	Reason string // what failed: bad magic, checksum mismatch, torn trailer…
}

func (e *CorruptPageError) Error() string {
	return fmt.Sprintf("storage: page %d: %s", e.Page, e.Reason)
}

// Is makes errors.Is(err, ErrCorruptPage) match.
func (e *CorruptPageError) Is(target error) bool { return target == ErrCorruptPage }

// ErrClosed marks an operation issued against a FileStore that has been
// closed. Concurrent readers that race with Close see this typed error
// instead of undefined behaviour on a closed file descriptor.
var ErrClosed = errors.New("storage: file store is closed")

// RetryPolicy bounds the buffer pool's retries of transient I/O errors.
// Backoff doubles after every failed attempt; the sleeps are context-aware,
// so a cancelled query stops retrying immediately.
type RetryPolicy struct {
	MaxRetries int           // additional attempts after the first failure
	Backoff    time.Duration // sleep before the first retry (0 = no sleep)
}

// DefaultRetry is the pool's default policy: three retries starting at
// half a millisecond.
var DefaultRetry = RetryPolicy{MaxRetries: 3, Backoff: 500 * time.Microsecond}
