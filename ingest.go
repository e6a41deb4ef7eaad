package snakes

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ingest"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The write path: a FileStore stays read-optimized (records packed along
// the chosen linearization) while upserts land in a delta store — an
// append-only, CRC-trailered redo log with an in-memory index — and are
// merged on read until a paced compactor folds them into the base file.
// See Ingestor for the high-level wrapper.

// DeltaLog is the append-only delta store of whole-cell upserts. Open one
// beside a store file with OpenDeltaLog and attach it to the FileStore
// with AttachDeltaLog so reads see pending writes.
type DeltaLog = ingest.Log

// DeltaOptions tunes a delta log's durability and backlog policy.
type DeltaOptions = ingest.Options

// SyncPolicy selects when the delta log fsyncs: SyncAlways (every Put),
// SyncBatch (every DeltaOptions.BatchBytes), or SyncNone (only on
// flush/checkpoint/close).
type SyncPolicy = ingest.SyncPolicy

// Delta log sync policies; see SyncPolicy.
const (
	SyncAlways = ingest.SyncAlways
	SyncBatch  = ingest.SyncBatch
	SyncNone   = ingest.SyncNone
)

// ParseSyncPolicy maps "always", "batch" or "none" to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) { return ingest.ParseSyncPolicy(s) }

// ErrIngestBacklog marks a Put rejected because the delta backlog exceeds
// DeltaOptions.MaxPendingBytes; match with errors.Is and shed or retry.
var ErrIngestBacklog = ingest.ErrBacklog

// DeltaPath returns the conventional delta-log path beside a store file.
func DeltaPath(storePath string) string { return ingest.DeltaPath(storePath) }

// OpenDeltaLog opens (or creates) the delta log for a store generation,
// replaying any existing entries and truncating a torn tail.
func OpenDeltaLog(path string, generation int64, opt DeltaOptions) (*DeltaLog, error) {
	return ingest.Open(path, generation, opt)
}

// AttachDeltaLog wires the log's index into the store's merge-on-read
// hook: every read path overlays pending cell payloads onto the base file,
// counting each overlaid cell in PoolTally.DeltaHits and on trace spans.
func AttachDeltaLog(fs *FileStore, l *DeltaLog) {
	fs.SetOverlay(l.Overlay())
}

// Compactor folds a delta log into its base store in paced ticks,
// draining the heaviest linearization regions first.
type Compactor = ingest.Compactor

// CompactorConfig tunes a Compactor's region size, per-tick byte budget,
// and catalog commit hook.
type CompactorConfig = ingest.CompactorConfig

// CompactionTick reports one Compactor.Tick.
type CompactionTick = ingest.TickStats

// NewCompactor builds a paced compactor; see CompactorConfig.
func NewCompactor(cfg CompactorConfig) *Compactor { return ingest.NewCompactor(cfg) }

// CompactionStatus is an Ingestor's write-path health snapshot.
type CompactionStatus struct {
	PendingCells int   `json:"pendingCells"` // cells awaiting compaction
	PendingBytes int64 `json:"pendingBytes"` // payload bytes awaiting compaction
	Puts         int64 `json:"puts"`         // lifetime accepted upserts
	Ticks        int64 `json:"ticks"`        // compaction ticks run
	CellsApplied int64 `json:"cellsApplied"` // cells folded into the base file
	BytesApplied int64 `json:"bytesApplied"` // bytes folded into the base file
}

// Ingestor bundles a FileStore, its delta log, and a compactor into the
// grid-level write API: PutCell upserts a cell by coordinates, reads issued
// against the store merge pending upserts automatically, and Compact (or a
// caller-driven tick loop) folds them into the base file.
type Ingestor struct {
	fs   *FileStore
	log  *DeltaLog
	comp *Compactor
}

// NewIngestor wires the three parts together and attaches the log's
// overlay to the store. The compactor may be configured with a Commit hook
// that persists the caller's catalog.
func NewIngestor(fs *FileStore, l *DeltaLog, cfg CompactorConfig) *Ingestor {
	AttachDeltaLog(fs, l)
	return &Ingestor{fs: fs, log: l, comp: NewCompactor(cfg)}
}

// PutCell replaces the cell at the given grid coordinates with the given
// records — durably per the log's SyncPolicy, visible to reads
// immediately, folded into the base file by a later Compact. The records
// must fit the cell's packed capacity.
func (in *Ingestor) PutCell(coords []int, records ...[]byte) error {
	order := in.fs.Layout().Order()
	cell := order.CellIndex(coords)
	framed := storage.FrameRecords(records...)
	if cap := in.fs.Layout().CellCapacity(cell); int64(len(framed)) > cap {
		return fmt.Errorf("snakes: %d bytes of records exceed cell capacity %d", len(framed), cap)
	}
	return in.log.Put(cell, framed)
}

// Flush forces the delta log to stable storage regardless of SyncPolicy.
func (in *Ingestor) Flush() error { return in.log.Flush() }

// Compact runs one paced compaction tick.
func (in *Ingestor) Compact(ctx context.Context) (CompactionTick, error) {
	return in.comp.Tick(ctx, in.fs, in.log)
}

// Drain compacts until no deltas remain or ctx ends.
func (in *Ingestor) Drain(ctx context.Context) error {
	for in.log.PendingCells() > 0 {
		if _, err := in.Compact(ctx); err != nil {
			return err
		}
	}
	return nil
}

// FrameRecords packs records into the length-prefixed framing a cell
// stores on disk — the payload format DeltaLog.Put and
// FileStore.PutCellBytes expect.
func FrameRecords(records ...[]byte) []byte { return storage.FrameRecords(records...) }

// RecoverDeltas replays every pending delta-log entry into the base store
// and flushes it — the startup redo pass after a crash. Returns the
// applied sequence numbers (pass them to DeltaLog.Checkpoint once the
// caller's catalog is durable) and the number of entries replayed.
// Idempotent: re-applying an entry the crashed process already applied
// rewrites the same bytes.
func RecoverDeltas(ctx context.Context, fs *FileStore, l *DeltaLog) (map[int]uint64, int, error) {
	return ingest.Recover(ctx, fs, l)
}

// RateTracker estimates an exponentially decayed event rate; the daemon
// divides the delta backlog by a byte-rate tracker's estimate to report
// compaction lag in seconds.
type RateTracker = workload.RateTracker

// NewRateTracker returns a tracker with the given half-life; <= 0 disables
// decay (a plain lifetime average).
func NewRateTracker(halfLife time.Duration) *RateTracker {
	return workload.NewRateTracker(halfLife)
}

// RegionMigrateOptions paces an incremental re-clustering; see
// Strategy.MigrateRegionsCtx.
type RegionMigrateOptions = ingest.RegionMigrateOptions

// MigrateRegionsCtx re-clusters a file store onto this strategy's order
// incrementally: the target linearization is cut into regions, regions are
// scored by (1 + pending delta bytes) × (1 + clustering-violation
// distance), and the worst are copied first in paced, bounded ticks, so
// the store converges toward the DP-optimal layout without ever rewriting
// the whole file in one burst. Pass the store's delta log (or nil) so
// pending upserts ride along; returns the new store and the tick count.
func (st *Strategy) MigrateRegionsCtx(ctx context.Context, old *FileStore, newPath string, poolFrames int, l *DeltaLog, opt RegionMigrateOptions) (*FileStore, int, error) {
	o, err := st.Materialize()
	if err != nil {
		return nil, 0, err
	}
	return ingest.MigrateRegionsCtx(ctx, old, newPath, o, poolFrames, l, opt)
}

// CompactionStatus snapshots the write path's backlog and progress.
func (in *Ingestor) CompactionStatus() CompactionStatus {
	ticks, cells, bytes := in.comp.Ticks()
	return CompactionStatus{
		PendingCells: in.log.PendingCells(),
		PendingBytes: in.log.PendingBytes(),
		Puts:         in.log.Puts(),
		Ticks:        ticks,
		CellsApplied: cells,
		BytesApplied: bytes,
	}
}
