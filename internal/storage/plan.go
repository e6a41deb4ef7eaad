package storage

import (
	"context"
	"encoding/binary"
	"unsafe"

	"repro/internal/linear"
)

// QueryPlan is a region prepared once per request: its analytic cost (the
// embedded Stats are exactly Layout.Query's numbers — admission weighs the
// query by plan.Pages and the wide event records them) and the seek runs the
// executor walks (FileStore.ReadPlanCellsCtx). A plan is immutable and may be
// shared between requests. Its seek runs depend on which cells are filled,
// so it is bound to the store's write epoch: the executor re-plans when a
// AppendBytes or PutCellBytes has moved the epoch since, and reads the fills
// themselves live, so a read never runs on stale extents or stale fills.
type QueryPlan struct {
	Stats
	region linear.Region
	epoch  uint64
	frags  []posRange // every fragment of the region, in disk order
	runs   []planRun
}

// posRange is a fragment: the disk positions [lo, hi).
type posRange struct{ lo, hi int32 }

// planRun is one seek run: a maximal group of cells whose filled cells'
// reserved extents fall on contiguous (or shared) pages. Distinct runs are
// separated by at least one full page, which is exactly the analytic
// model's merged page range — on a loaded store Layout.Query predicts one
// seek per run. A run covers whole fragments (split where a run boundary
// falls inside one), so it also carries the region's base-empty cells in
// disk order: the executor skips them, or probes them when an overlay is
// installed, which is how overlay-only cells are served in place.
type planRun struct {
	fragLo, fragHi int32 // plan.frags[fragLo:fragHi]
	cells          int32 // filled cells
	bytes          int64 // filled bytes
	pageLo, pageHi int64 // pages of the filled cells' extents; pageHi < pageLo when none is filled
}

// planBuilder groups a region's fragments into seek runs. Callers hold
// fs.mu (read): the grouping reads fills.
type planBuilder struct {
	fs  *FileStore
	p   *QueryPlan
	acc statsAcc
}

func (b *planBuilder) addFragment(lo, hi int) {
	fs, p := b.fs, b.p
	b.acc.add(fs.layout, lo, hi)
	u := fs.layout.usable()
	if len(p.runs) == 0 {
		p.runs = append(p.runs, planRun{pageHi: -1})
	}
	run := &p.runs[len(p.runs)-1]
	for pos := lo; pos < hi; pos++ {
		e := &fs.dir[pos]
		if e.fill == 0 {
			continue
		}
		pLo, pHi := e.start/u, (fs.dir[pos+1].start-1)/u
		switch {
		case run.pageHi < run.pageLo: // first filled cell of the run
			run.pageLo, run.pageHi = pLo, pHi
		case pLo > run.pageHi+1: // a full page of gap: this cell starts a new run
			if pos > lo {
				p.frags = append(p.frags, posRange{int32(lo), int32(pos)})
				lo = pos
			}
			run.fragHi = int32(len(p.frags))
			p.runs = append(p.runs, planRun{fragLo: run.fragHi, pageLo: pLo, pageHi: pHi})
			run = &p.runs[len(p.runs)-1]
		case pHi > run.pageHi:
			run.pageHi = pHi
		}
		run.cells++
		run.bytes += int64(e.fill)
	}
	p.frags = append(p.frags, posRange{int32(lo), int32(hi)})
	run.fragHi = int32(len(p.frags))
}

// buildPlan plans a region against the current fills. Callers hold fs.mu
// (read).
func (fs *FileStore) buildPlan(r linear.Region) *QueryPlan {
	p := &QueryPlan{region: append(linear.Region(nil), r...), epoch: fs.epoch}
	b := planBuilder{fs: fs, p: p}
	fs.layout.eachFragment(r, b.addFragment)
	p.Stats = b.acc.stats(fs.layout.usable())
	return p
}

// planCacheCap bounds the prepared-plan cache. On overflow the whole cache
// is dropped rather than evicted piecemeal: workloads cycle through a small
// set of query shapes, so hitting the cap means the shape set churned and
// the old entries are dead weight anyway.
const planCacheCap = 1024

// lookupPlan returns the region's plan from the prepared-plan cache,
// building and caching it on a miss; hit reports which. An entry planned
// under an older write epoch is stale and is replaced. Callers hold fs.mu
// (read), so the epoch cannot move under the lookup.
func (fs *FileStore) lookupPlan(r linear.Region) (p *QueryPlan, hit bool) {
	var kb [128]byte
	key := kb[:0]
	for _, rg := range r {
		key = binary.AppendVarint(key, int64(rg.Lo))
		key = binary.AppendVarint(key, int64(rg.Hi))
	}
	fs.planMu.Lock()
	p = fs.planCache[string(key)]
	fs.planMu.Unlock()
	if p != nil && p.epoch == fs.epoch {
		return p, true
	}
	stale := p != nil
	p = fs.buildPlan(r)
	fs.planMu.Lock()
	if stale {
		fs.planInvCell.Add(1)
	} else if len(fs.planCache) >= planCacheCap {
		fs.planInvAll.Add(int64(len(fs.planCache)))
		fs.planCache = nil
	}
	if fs.planCache == nil {
		fs.planCache = make(map[string]*QueryPlan)
	}
	fs.planCache[string(key)] = p
	fs.planMu.Unlock()
	return p, false
}

// Plan prepares the region for reading: one pass over its cells yields the
// analytic cost and the seek runs, served from the region-keyed plan cache
// when the same shape was planned since the last write. The lookup is
// attributed to the request's PoolTally (when ctx carries one), so each
// served query reports whether it paid for planning. Hand the plan to
// ReadPlanCellsCtx; it stays valid across writes (the executor revalidates it).
func (fs *FileStore) Plan(ctx context.Context, r linear.Region) (*QueryPlan, error) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return nil, ErrClosed
	}
	p, hit := fs.lookupPlan(r)
	if t := tallyFrom(ctx); t != nil {
		t.planLookup(hit)
	}
	return p, nil
}

// ResidentBytes reports the heap behind the store's per-cell and per-plan
// state: the cell directory it shares with its layout, and the plan cache.
func (fs *FileStore) ResidentBytes() (directory, planCache int64) {
	fs.planMu.Lock()
	defer fs.planMu.Unlock()
	for key, p := range fs.planCache {
		planCache += int64(len(key)) + int64(unsafe.Sizeof(*p)) + int64(cap(p.region))*int64(unsafe.Sizeof(linear.Range{})) +
			int64(cap(p.frags))*int64(unsafe.Sizeof(posRange{})) + int64(cap(p.runs))*int64(unsafe.Sizeof(planRun{}))
	}
	return int64(cap(fs.dir)) * int64(unsafe.Sizeof(dirEntry{})), planCache
}

// PlanCacheInvalidations reports how many prepared plans have been dropped,
// split by scope: entries a write made stale (found and replaced at their
// next lookup) vs the drop-everything overflow path when the cache hits
// planCacheCap.
func (fs *FileStore) PlanCacheInvalidations() (cell, all int64) {
	return fs.planInvCell.Load(), fs.planInvAll.Load()
}
