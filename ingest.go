package snakes

import (
	"context"
	"time"

	"repro/internal/ingest"
	"repro/internal/rowcodec"
	"repro/internal/workload"
)

// The write path: a FileStore stays read-optimized (records packed along
// the chosen linearization) while upserts land in a delta store — an
// append-only, CRC-trailered redo log with an in-memory index — and are
// merged on read until a paced compactor folds them into the base file.

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

// FrameRecords frames records back to back: a cell of framed records, as
// DeltaLog.Put and FileStore.PutCellBytes take a cell's bytes.
func FrameRecords(records ...[]byte) []byte { return rowcodec.FrameRecords(records...) }

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
