package storage

import (
	"context"
	"sync/atomic"
)

// PoolTally accumulates the buffer pool traffic attributable to one
// request. Attach one to a context with WithPoolTally and pass that
// context through the read path: every pool operation the request performs
// — including the evictions and write-backs its own misses force — is
// counted here as well as in the pool's global counters. Unlike deltas
// over the shared PoolStats, a tally is exact under concurrency: other
// requests' traffic never leaks in, and ResetStats on the pool cannot
// produce negative numbers.
//
// A tally additionally tracks observed seeks: maximal runs of consecutive
// physical page reads, the live counterpart of the analytic seek count
// from Layout.Query. The zero value is ready to use. A PoolTally is safe
// for concurrent use, though per-request attribution is only meaningful if
// the tally is not shared between requests.
type PoolTally struct {
	hits, misses, evictions, writes, retries, sfWaits atomic.Int64
	seeks                                             atomic.Int64
	deltaHits                                         atomic.Int64 // cells served from a delta overlay instead of base pages
	planHits, planMisses                              atomic.Int64 // prepared-plan cache lookups
	lastPage                                          atomic.Int64 // page+2 of the last physical read; 0 = none yet

}

// Stats returns the tallied traffic as a PoolStats snapshot.
func (t *PoolTally) Stats() PoolStats {
	return PoolStats{
		Hits:              t.hits.Load(),
		Misses:            t.misses.Load(),
		Evictions:         t.evictions.Load(),
		Writes:            t.writes.Load(),
		Retries:           t.retries.Load(),
		SingleFlightWaits: t.sfWaits.Load(),
	}
}

// Seeks returns the observed seek count: the number of maximal runs of
// consecutive pages among the tally's physical page reads. A cold scan of
// a contiguous range is one seek no matter how many pages it loads.
func (t *PoolTally) Seeks() int64 { return t.seeks.Load() }

// DeltaHits returns the number of cells this request answered from the
// delta overlay (see FileStore.SetOverlay) instead of base-file pages.
// Overlay reads cost no pool traffic, so they appear nowhere in Stats();
// this counter is their only footprint.
func (t *PoolTally) DeltaHits() int64 { return t.deltaHits.Load() }

// deltaHit records one overlay-served cell.
func (t *PoolTally) deltaHit() { t.deltaHits.Add(1) }

// PlanHits returns how many of this request's read plans were served from
// the prepared-plan cache; PlanMisses counts the plans it had to compute.
// A request plans once (FileStore.Plan).
func (t *PoolTally) PlanHits() int64   { return t.planHits.Load() }
func (t *PoolTally) PlanMisses() int64 { return t.planMisses.Load() }

// planLookup records one plan-cache consultation.
func (t *PoolTally) planLookup(hit bool) {
	if hit {
		t.planHits.Add(1)
	} else {
		t.planMisses.Add(1)
	}
}

// physRead records one physical page read for seek accounting: a read
// that does not continue the previous page starts a new run.
func (t *PoolTally) physRead(page int64) {
	if prev := t.lastPage.Swap(page + 2); prev != page+1 {
		t.seeks.Add(1)
	}
}

// reset clears a fragment tally for reuse by the next run.
func (t *PoolTally) reset() { *t = PoolTally{} }

// merge folds a completed fragment tally into the request tally. lastPage
// is deliberately not transferred: fragments are page-disjoint seek runs,
// so their seek counts add without cross-fragment run merging.
func (t *PoolTally) merge(c *PoolTally) {
	t.hits.Add(c.hits.Load())
	t.misses.Add(c.misses.Load())
	t.evictions.Add(c.evictions.Load())
	t.writes.Add(c.writes.Load())
	t.retries.Add(c.retries.Load())
	t.sfWaits.Add(c.sfWaits.Load())
	t.seeks.Add(c.seeks.Load())
	t.deltaHits.Add(c.deltaHits.Load())
	t.planHits.Add(c.planHits.Load())
	t.planMisses.Add(c.planMisses.Load())
}

// tallyKey is the context key WithPoolTally stores under.
type tallyKey struct{}

// WithPoolTally returns a context that routes per-request pool accounting
// into t. Install a fresh tally per request; a later WithPoolTally on the
// same chain replaces the earlier one.
func WithPoolTally(ctx context.Context, t *PoolTally) context.Context {
	return context.WithValue(ctx, tallyKey{}, t)
}

// tallyFrom extracts the request tally, or nil when none is attached.
func tallyFrom(ctx context.Context) *PoolTally {
	t, _ := ctx.Value(tallyKey{}).(*PoolTally)
	return t
}
