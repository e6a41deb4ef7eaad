// Package ingest is the store's write path: a crash-safe delta log of
// whole-cell upserts, a merge-on-read overlay that serves the freshest
// cell content to queries, and a paced compactor that folds deltas into
// the base file and re-clusters the regions that most violate the target
// linearization (compact.go).
//
// The durability protocol is redo-only. Every acknowledged Put is on disk
// in the log (write(2) always happens before the ack; the fsync cadence is
// the sync policy), the in-memory index serves the freshest payload per
// cell to the overlay, and the compactor applies payloads to the base
// store with the idempotent PutCellBytes replace — so recovery is simply
// "replay everything still in the log", no matter where a crash landed:
// a torn tail is truncated, a replayed-but-already-applied entry rewrites
// the same bytes, and the log is only checkpointed after the base content
// and catalog are durable.
package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/storage"
	"unsafe"
)

// SyncPolicy selects when the delta log fsyncs. Record bytes are always
// written to the file before Put acknowledges, so every policy survives a
// process kill; the policies differ only in the power-loss window.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every Put returns: no acknowledged write is
	// lost even on power failure.
	SyncAlways SyncPolicy = iota
	// SyncBatch fsyncs once at least BatchBytes have accumulated since the
	// last sync (and on Flush/Checkpoint/Close): a bounded power-loss
	// window, with write(2) durability against process death.
	SyncBatch
	// SyncNone fsyncs only on Flush, Checkpoint and Close.
	SyncNone
)

// ParseSyncPolicy maps the -ingest-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "none":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("ingest: unknown sync policy %q (want always, batch or none)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	case SyncNone:
		return "none"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ErrBacklog is returned by Put when the log's pending bytes exceed the
// configured ceiling: the compactor is behind and callers should shed or
// retry rather than grow the index without bound. Match with errors.Is.
var ErrBacklog = errors.New("ingest: delta backlog full")

// ErrLogPoisoned is returned by every Put and Flush after one failed to write
// or fsync the log, wrapping that first failure. After a failed fsync the
// kernel may have dropped the record's pages, and replay truncates from the
// first bad record, so a record appended behind it could be acknowledged and
// later lost. Reads of the index keep working; reopening the log (a restart)
// replays what is on disk. Match with errors.Is.
var ErrLogPoisoned = errors.New("ingest: delta log refuses writes after a failed write")

// logMagic marks a delta log header ("SNKD").
const logMagic uint32 = 0x44_4B_4E_53

// logVersion is the current log format.
const logVersion = 1

// logHeaderSize is the fixed header: magic, version (u32 each), generation
// (u64), header CRC (u32), reserved (u32).
const logHeaderSize = 24

// recordOverhead is the framing around each entry's payload: cell (u32),
// payload length (u32), trailing CRC (u32) over cell|len|payload.
const recordOverhead = 12

// castagnoli matches the checksum the page trailers use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// crashEnv, when set, makes the log crash the process (exit 42) at a named
// point, for the kill-subprocess recovery matrix: "mid-append" dies after
// writing half a record, "pre-checkpoint" dies after the base apply but
// before the log is checkpointed, "mid-compact" (compact.go) dies after
// the first cell of a compaction tick has been applied to the base file.
const crashEnv = "SNAKESTORE_INGEST_CRASH"

// crashExitCode distinguishes an orchestrated crash from a real failure.
const crashExitCode = 42

// DeltaPath returns the conventional delta-log path beside a store file.
// Generation-numbered stores get generation-numbered logs for free, since
// the store path already carries the .gN suffix.
func DeltaPath(storePath string) string { return storePath + ".delta" }

// entry is the freshest pending payload for one cell.
type entry struct {
	payload []byte
	seq     uint64
	at      time.Time
}

// Options tunes a delta log.
type Options struct {
	Policy SyncPolicy
	// BatchBytes is the SyncBatch fsync threshold (default 256 KiB).
	BatchBytes int64
	// MaxPendingBytes bounds the pending (unapplied) payload bytes; a Put
	// that would exceed it fails with ErrBacklog. 0 means unbounded.
	MaxPendingBytes int64
}

// Log is the delta store: an append-only, CRC-trailered redo log of
// whole-cell upserts plus an in-memory index of the freshest payload per
// cell. A Log is safe for concurrent use; Overlay() hands the index to the
// FileStore's merge-on-read hook.
type Log struct {
	path       string
	generation int64

	mu       sync.RWMutex
	f        *os.File
	index    map[int]entry
	seq      uint64
	size     int64 // append offset
	unsynced int64
	pending  int64 // payload bytes awaiting compaction
	puts     int64 // lifetime Put count
	closed   bool
	poisoned error // ErrLogPoisoned wrapping the first failed write or fsync

	opt   Options
	crash string
}

// Open opens (or creates) the delta log beside a store generation. An
// existing file is validated against the expected generation and replayed
// into the index; a torn tail — a crash mid-append — is truncated away, so
// the log always reopens consistent with its last complete record.
func Open(path string, generation int64, opt Options) (*Log, error) {
	if opt.BatchBytes <= 0 {
		opt.BatchBytes = 256 << 10
	}
	l := &Log{
		path:       path,
		generation: generation,
		index:      make(map[int]entry),
		opt:        opt,
		crash:      os.Getenv(crashEnv),
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	l.f = f
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() == 0 {
		if err := l.writeHeader(f); err != nil {
			f.Close()
			return nil, err
		}
		l.size = logHeaderSize
		return l, nil
	}
	if err := l.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// writeHeader writes and fsyncs the fixed header at offset 0. The header
// is synced at creation no matter the policy: a log whose first record is
// durable but whose header is not would be unreadable.
func (l *Log) writeHeader(f *os.File) error {
	var hdr [logHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], logMagic)
	binary.LittleEndian.PutUint32(hdr[4:], logVersion)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(l.generation))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.Checksum(hdr[:16], castagnoli))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	return storage.SyncDir(filepath.Dir(l.path))
}

// replay validates the header, loads every complete record into the index,
// and truncates anything after the last complete record (a torn append or
// trailing garbage). Only called from Open.
func (l *Log) replay() error {
	var hdr [logHeaderSize]byte
	if _, err := io.ReadFull(io.NewSectionReader(l.f, 0, logHeaderSize), hdr[:]); err != nil {
		return fmt.Errorf("ingest: delta header: %w", err)
	}
	if got := binary.LittleEndian.Uint32(hdr[0:]); got != logMagic {
		return fmt.Errorf("ingest: bad delta magic %#08x", got)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != logVersion {
		return fmt.Errorf("ingest: unsupported delta version %d", v)
	}
	if crc := binary.LittleEndian.Uint32(hdr[16:]); crc != crc32.Checksum(hdr[:16], castagnoli) {
		return fmt.Errorf("ingest: delta header checksum mismatch")
	}
	if g := int64(binary.LittleEndian.Uint64(hdr[8:])); g != l.generation {
		return fmt.Errorf("ingest: delta log is for generation %d, store is generation %d", g, l.generation)
	}
	st, err := l.f.Stat()
	if err != nil {
		return err
	}
	off := int64(logHeaderSize)
	now := time.Now()
	var meta [8]byte
	for {
		if st.Size()-off < recordOverhead {
			break
		}
		if _, err := l.f.ReadAt(meta[:], off); err != nil {
			break
		}
		cell := int(binary.LittleEndian.Uint32(meta[0:]))
		n := int64(binary.LittleEndian.Uint32(meta[4:]))
		if st.Size()-off < recordOverhead+n {
			break // torn append: the payload never fully landed
		}
		buf := make([]byte, 8+n+4)
		if _, err := l.f.ReadAt(buf, off); err != nil {
			break
		}
		want := binary.LittleEndian.Uint32(buf[8+n:])
		if crc32.Checksum(buf[:8+n], castagnoli) != want {
			break // torn or corrupt record: everything after it is suspect
		}
		l.seq++
		payload := buf[8 : 8+n : 8+n]
		if old, ok := l.index[cell]; ok {
			l.pending -= int64(len(old.payload))
		}
		l.index[cell] = entry{payload: payload, seq: l.seq, at: now}
		l.pending += n
		l.puts++
		off += recordOverhead + n
	}
	if off != st.Size() {
		if err := l.f.Truncate(off); err != nil {
			return fmt.Errorf("ingest: truncating torn delta tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return err
		}
	}
	l.size = off
	return nil
}

// Put upserts a cell's full content, as the store keeps it: the bytes
// replace whatever the cell holds, both in the overlay and — after compaction — in the base
// file. The record is written (and, per policy, fsynced) before Put
// returns; the payload is copied, so callers may reuse the slice.
func (l *Log) Put(cell int, b []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	if l.opt.MaxPendingBytes > 0 {
		grow := int64(len(b))
		if old, ok := l.index[cell]; ok {
			grow -= int64(len(old.payload))
		}
		if l.pending+grow > l.opt.MaxPendingBytes {
			return fmt.Errorf("%w: %d pending bytes, ceiling %d", ErrBacklog, l.pending, l.opt.MaxPendingBytes)
		}
	}
	rec := make([]byte, recordOverhead+len(b))
	binary.LittleEndian.PutUint32(rec[0:], uint32(cell))
	binary.LittleEndian.PutUint32(rec[4:], uint32(len(b)))
	copy(rec[8:], b)
	binary.LittleEndian.PutUint32(rec[8+len(b):], crc32.Checksum(rec[:8+len(b)], castagnoli))
	if l.crash == "mid-append" {
		// Orchestrated crash: half the record reaches the file, then the
		// process dies. Recovery must truncate this torn tail.
		l.f.WriteAt(rec[:len(rec)/2], l.size)
		l.f.Sync()
		os.Exit(crashExitCode)
	}
	if _, err := l.f.WriteAt(rec, l.size); err != nil {
		return l.poison(err)
	}
	l.size += int64(len(rec))
	l.unsynced += int64(len(rec))
	if l.opt.Policy == SyncAlways || l.opt.Policy == SyncBatch && l.unsynced >= l.opt.BatchBytes {
		if err := l.f.Sync(); err != nil {
			return l.poison(err)
		}
		l.unsynced = 0
	}
	payload := rec[8 : 8+len(b) : 8+len(b)]
	l.seq++
	if old, ok := l.index[cell]; ok {
		l.pending -= int64(len(old.payload))
	}
	l.index[cell] = entry{payload: payload, seq: l.seq, at: time.Now()}
	l.pending += int64(len(b))
	l.puts++
	return nil
}

// Flush fsyncs any batched appends.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	if l.poisoned != nil {
		return l.poisoned
	}
	if l.unsynced == 0 {
		return nil
	}
	if err := l.f.Sync(); err != nil {
		return l.poison(err)
	}
	l.unsynced = 0
	return nil
}

// poison makes err, a failed write or fsync, the answer to every later Put
// and Flush. Callers hold mu.
func (l *Log) poison(err error) error {
	l.poisoned = fmt.Errorf("%w: %w", ErrLogPoisoned, err)
	return l.poisoned
}

// Poisoned returns the error every Put and Flush answers since a write or
// fsync failed (ErrLogPoisoned wrapping that failure), or nil while the log
// takes writes.
func (l *Log) Poisoned() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.poisoned
}

// Get returns the freshest pending payload for a cell.
func (l *Log) Get(cell int) ([]byte, bool) {
	l.mu.RLock()
	e, ok := l.index[cell]
	l.mu.RUnlock()
	if !ok {
		return nil, false
	}
	return e.payload, true
}

// Overlay returns the merge-on-read hook for FileStore.SetOverlay: queries
// consult it per cell and a hit substitutes the pending payload for the
// cell's base content. The returned payload slices are immutable.
func (l *Log) Overlay() func(cell int) ([]byte, bool) {
	return l.Get
}

// Pending is one unapplied upsert, snapshotted for compaction.
type Pending struct {
	Cell    int
	Seq     uint64
	Payload []byte
	At      time.Time
}

// SnapshotPending returns the current index contents. Entries put after
// the snapshot carry higher sequence numbers, so a Checkpoint keyed on the
// snapshot's seqs never drops them.
func (l *Log) SnapshotPending() []Pending {
	l.mu.RLock()
	defer l.mu.RUnlock()
	out := make([]Pending, 0, len(l.index))
	for cell, e := range l.index {
		out = append(out, Pending{Cell: cell, Seq: e.seq, Payload: e.payload, At: e.at})
	}
	return out
}

// Checkpoint drops every entry whose seq is <= the applied seq for its
// cell — the caller asserts those payloads are durable in the base store —
// and rewrites the log file to hold only the survivors (entries put after
// the apply snapshot). The rewrite is atomic (temp, fsync, rename), so a
// crash leaves either the old complete log or the new one; either replays
// to a correct overlay because the base apply is idempotent.
func (l *Log) Checkpoint(applied map[int]uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	if l.crash == "pre-checkpoint" {
		// Orchestrated crash between the base/catalog commit and the log
		// truncation: recovery re-applies every logged entry — idempotent.
		l.f.Sync()
		os.Exit(crashExitCode)
	}
	for cell, e := range l.index {
		if seq, ok := applied[cell]; ok && e.seq <= seq {
			l.pending -= int64(len(e.payload))
			delete(l.index, cell)
		}
	}
	tmp := l.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	abort := func(err error) error {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if err := l.writeHeader(nf); err != nil {
		return abort(err)
	}
	off := int64(logHeaderSize)
	for cell, e := range l.index {
		rec := make([]byte, recordOverhead+len(e.payload))
		binary.LittleEndian.PutUint32(rec[0:], uint32(cell))
		binary.LittleEndian.PutUint32(rec[4:], uint32(len(e.payload)))
		copy(rec[8:], e.payload)
		binary.LittleEndian.PutUint32(rec[8+len(e.payload):], crc32.Checksum(rec[:8+len(e.payload)], castagnoli))
		if _, err := nf.WriteAt(rec, off); err != nil {
			return abort(err)
		}
		off += int64(len(rec))
	}
	if err := nf.Sync(); err != nil {
		return abort(err)
	}
	if err := os.Rename(tmp, l.path); err != nil {
		return abort(err)
	}
	// The new file is the log from here on, whether or not the directory
	// sync that makes the rename durable succeeds.
	l.f.Close()
	l.f = nf
	l.size = off
	l.unsynced = 0
	return storage.SyncDir(filepath.Dir(l.path))
}

// PendingBytes returns the payload bytes awaiting compaction.
func (l *Log) PendingBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.pending
}

// ResidentBytes returns the heap behind the overlay reads consult: the
// pending payloads plus their index entries.
func (l *Log) ResidentBytes() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.pending + int64(len(l.index))*int64(unsafe.Sizeof(entry{})+unsafe.Sizeof(int(0)))
}

// PendingCells returns the number of cells with unapplied upserts.
func (l *Log) PendingCells() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.index)
}

// Puts returns the lifetime Put count (replayed entries included).
func (l *Log) Puts() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.puts
}

// OldestPendingAge returns how long the oldest unapplied upsert has been
// waiting — the compaction lag — or 0 when the log is drained.
func (l *Log) OldestPendingAge(now time.Time) time.Duration {
	l.mu.RLock()
	defer l.mu.RUnlock()
	var oldest time.Time
	for _, e := range l.index {
		if oldest.IsZero() || e.at.Before(oldest) {
			oldest = e.at
		}
	}
	if oldest.IsZero() {
		return 0
	}
	return now.Sub(oldest)
}

// Generation returns the store generation the log belongs to.
func (l *Log) Generation() int64 { return l.generation }

// Path returns the log's file path.
func (l *Log) Path() string { return l.path }

// Close fsyncs and closes the log file. The file is left in place; delete
// it only after its generation is retired.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return os.ErrClosed
	}
	l.closed = true
	syncErr := l.f.Sync()
	closeErr := l.f.Close()
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
