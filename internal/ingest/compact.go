package ingest

import (
	"context"
	"fmt"
	"os"
	"sort"

	"repro/internal/storage"
	"repro/internal/trace"
)

// This file is the background half of the write path: paced compaction of
// the delta log into the base file. The compactor cuts the linearization
// into fixed-size windows of consecutive positions ("regions") and drains
// the regions with the most pending delta bytes first — storage.MigrateCtx's
// region score, (1 + deltaBytes) × (1 + violation), with the deployed order
// as the target, so the violation term is zero.

// CompactorConfig tunes the paced compactor.
type CompactorConfig struct {
	// RegionCells is the scoring window in consecutive positions
	// (default 64).
	RegionCells int
	// MaxBytesPerTick bounds the delta payload applied per tick
	// (default 1 MiB). A tick never rewrites more than this plus one
	// region's overshoot, so compaction cost stays amortized no matter how
	// large the backlog grows.
	MaxBytesPerTick int64
	// Commit, when non-nil, persists the store's catalog (its new
	// LoadedBytes) after the tick's cells are applied and flushed, before
	// the log is checkpointed — the catalog-first commit point. A failed
	// commit aborts the checkpoint; the entries simply remain pending.
	Commit func(ctx context.Context, fs *storage.FileStore) error
}

// TickStats reports one compaction tick.
type TickStats struct {
	CellsApplied int
	BytesApplied int64
	Regions      int // regions the applied cells spanned
	Oversize     int // pending cells larger than their extent, left in the log
	PendingCells int // left after the tick
	PendingBytes int64
}

// Compactor folds the delta log into the base store in paced ticks. It
// keeps only counters; the store and log are passed per tick so the serve
// loop can hot-swap generations without rebuilding the compactor.
type Compactor struct {
	cfg   CompactorConfig
	crash string

	ticks, cells, bytes int64
}

// NewCompactor validates the config and applies defaults.
func NewCompactor(cfg CompactorConfig) *Compactor {
	if cfg.RegionCells <= 0 {
		cfg.RegionCells = 64
	}
	if cfg.MaxBytesPerTick <= 0 {
		cfg.MaxBytesPerTick = 1 << 20
	}
	return &Compactor{cfg: cfg, crash: os.Getenv(crashEnv)}
}

// Ticks returns the lifetime (ticks, cells applied, bytes applied).
func (c *Compactor) Ticks() (ticks, cells, bytes int64) {
	return c.ticks, c.cells, c.bytes
}

// regionScore aggregates one scoring window's pending cells.
type regionScore struct {
	region int
	bytes  int64
	cells  []Pending
}

// Tick applies up to MaxBytesPerTick of pending delta payload to the base
// store, heaviest regions first, then commits the catalog and checkpoints
// the log. Safe to call concurrently with queries: each PutCellBytes runs
// under the store's write lock, and until the checkpoint removes an entry
// the overlay keeps serving it, so readers never observe a half-applied
// cell. Under a trace the tick is one compact span.
func (c *Compactor) Tick(ctx context.Context, fs *storage.FileStore, log *Log) (TickStats, error) {
	pend := log.SnapshotPending()
	if len(pend) == 0 {
		return TickStats{}, nil
	}
	c.ticks++
	_, sp := trace.Start(ctx, trace.KindCompact, "")
	defer sp.End()
	order := fs.Layout().Order()
	byRegion := make(map[int]*regionScore)
	for _, p := range pend {
		w := order.PosOf(p.Cell) / c.cfg.RegionCells
		rs := byRegion[w]
		if rs == nil {
			rs = &regionScore{region: w}
			byRegion[w] = rs
		}
		rs.bytes += int64(len(p.Payload))
		rs.cells = append(rs.cells, p)
	}
	regions := make([]*regionScore, 0, len(byRegion))
	for _, rs := range byRegion {
		sort.Slice(rs.cells, func(i, j int) bool {
			return order.PosOf(rs.cells[i].Cell) < order.PosOf(rs.cells[j].Cell)
		})
		regions = append(regions, rs)
	}
	// In-place compaction: target == deployed, violation = 0, so the score
	// is the delta mass and ties break on region index for determinism.
	sort.Slice(regions, func(i, j int) bool {
		if regions[i].bytes != regions[j].bytes {
			return regions[i].bytes > regions[j].bytes
		}
		return regions[i].region < regions[j].region
	})
	stats := TickStats{}
	applied := make(map[int]uint64)
	budget := c.cfg.MaxBytesPerTick
	for _, rs := range regions {
		if stats.BytesApplied >= budget && stats.CellsApplied > 0 {
			break
		}
		stats.Regions++
		for _, p := range rs.cells {
			if err := ctx.Err(); err != nil {
				sp.SetError(err)
				return stats, err
			}
			if int64(len(p.Payload)) > fs.Layout().CellCapacity(p.Cell) {
				// The base file has no room for this cell: it stays pending,
				// answered from the overlay, and must not hold back the rest.
				stats.Oversize++
				continue
			}
			if err := fs.PutCellBytes(p.Cell, p.Payload); err != nil {
				sp.SetError(err)
				return stats, fmt.Errorf("ingest: compacting cell %d: %w", p.Cell, err)
			}
			stats.CellsApplied++
			stats.BytesApplied += int64(len(p.Payload))
			applied[p.Cell] = p.Seq
			if c.crash == "mid-compact" {
				// Orchestrated crash after one cell reached the base file but
				// before flush, commit or checkpoint. The entry is still in
				// the log; recovery re-applies it.
				os.Exit(crashExitCode)
			}
		}
	}
	// Durability order: base pages, then catalog, then the checkpoint that
	// forgets the entries. A crash between any two steps replays safely.
	if err := fs.Pool().Flush(); err != nil {
		sp.SetError(err)
		return stats, fmt.Errorf("ingest: compaction flush: %w", err)
	}
	if c.cfg.Commit != nil {
		if err := c.cfg.Commit(ctx, fs); err != nil {
			sp.SetError(err)
			return stats, fmt.Errorf("ingest: compaction catalog commit: %w", err)
		}
	}
	if err := log.Checkpoint(applied); err != nil {
		sp.SetError(err)
		return stats, fmt.Errorf("ingest: compaction checkpoint: %w", err)
	}
	c.cells += int64(stats.CellsApplied)
	c.bytes += stats.BytesApplied
	stats.PendingCells = log.PendingCells()
	stats.PendingBytes = log.PendingBytes()
	sp.SetAttr("cells", int64(stats.CellsApplied))
	sp.SetAttr("bytes", stats.BytesApplied)
	sp.SetAttr("regions", int64(stats.Regions))
	sp.SetAttr("pending_cells", int64(stats.PendingCells))
	return stats, nil
}

// Recover replays every pending log entry into the base store and flushes
// it — the startup redo pass. The caller then rebuilds parity, persists
// the catalog, and calls log.Checkpoint to retire the entries (Recover
// returns the applied seqs). Idempotent: re-applying an entry the crashed
// process already applied rewrites the same bytes.
func Recover(ctx context.Context, fs *storage.FileStore, log *Log) (map[int]uint64, int, error) {
	pend := log.SnapshotPending()
	if len(pend) == 0 {
		return nil, 0, nil
	}
	applied := make(map[int]uint64, len(pend))
	for _, p := range pend {
		if err := ctx.Err(); err != nil {
			return nil, 0, err
		}
		if err := fs.PutCellBytes(p.Cell, p.Payload); err != nil {
			return nil, 0, fmt.Errorf("ingest: recovery of cell %d: %w", p.Cell, err)
		}
		applied[p.Cell] = p.Seq
	}
	if err := fs.Pool().Flush(); err != nil {
		return nil, 0, fmt.Errorf("ingest: recovery flush: %w", err)
	}
	return applied, len(pend), nil
}
