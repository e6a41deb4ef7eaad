package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/storage"
)

// maintainBudget is the I/O of one tick of the daemon's one background loop:
// at the default -maintain-interval of 1s, 1 MiB/s, or 128 scrubbed pages
// of 8 KiB.
const maintainBudget = 1 << 20

// errMaintStopped ends a reorganization the maintainer's loop can no longer
// run: outcome "canceled", answered 503.
var errMaintStopped = fmt.Errorf("maintenance stopped: %w: %w", storage.ErrClosed, context.Canceled)

// maintainer is the loop's state, owned by the loop's goroutine except the
// reorganization slot, which POST /reorg may fill under mu.
type maintainer struct {
	budget     int64
	adaptEvery time.Duration // how often a tick runs the reorg policy step
	lastStep   time.Time     // when it last did
	oversize   bool          // pending cells exceed their extents (logged on change)

	mu    sync.Mutex
	job   *reorgJob // the running reorganization, if any
	ended bool      // the loop has ended and takes no more reorganizations

	// The scrub pass: its generation, where its next window starts, and
	// what its windows found so far.
	gen, passPages, passRows int64
	cur                      storage.ScrubCursor
	passProblems             int
}

// tickSpend is what one tick spent of its budget, by step.
type tickSpend struct{ fold, copy, scrub int64 }

func newMaintainer(budget int64) *maintainer { return &maintainer{budget: budget} }

// startMaintainer ticks the maintainer every interval until ctx ends or the
// daemon drains, running the reorg policy step every adaptEvery. A
// reorganization still running when the loop ends is aborted as canceled.
func (s *server) startMaintainer(ctx context.Context, interval, adaptEvery time.Duration) {
	m := s.maint
	m.adaptEvery, m.lastStep = adaptEvery, time.Now()
	go func() {
		defer func() {
			m.mu.Lock()
			m.ended = true
			j := m.job
			m.mu.Unlock()
			if j != nil {
				j.mig.Abort()
				s.endReorg(j, errMaintStopped)
			}
		}()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				if s.draining.Load() {
					return
				}
				s.maintainTick(ctx)
			}
		}
	}()
}

// maintainTick spends one tick's budget in a fixed order: run the reorg
// policy step when it is due and no reorganization runs; then either copy
// the running reorganization's next cells (in bytes copied), cutting over
// once the copy is done, or fold pending deltas (in payload bytes); then
// scrub with the rest. No fold runs beside a reorganization: its cutover
// carries every pending delta, and a fold would checkpoint away an upsert
// to a cell the copy had already passed.
func (s *server) maintainTick(ctx context.Context) tickSpend {
	m := s.maint
	var spent tickSpend
	m.mu.Lock()
	j := m.job
	m.mu.Unlock()
	if j == nil && s.reorg != nil && time.Since(m.lastStep) >= m.adaptEvery {
		m.lastStep = time.Now()
		j, _ = s.startReorg(ctx, false) // errors are in the reorganizer's status
	}
	if j != nil {
		var err error
		spent.copy, err = j.mig.Step(j.ctx, m.budget)
		j.ticks++
		s.reorg.Progress(j.mig.Progress())
		switch {
		case err != nil:
			s.endReorg(j, err)
		case j.mig.Done():
			s.endReorg(j, s.cutover(j))
		}
	} else if s.ing != nil {
		spent.fold = s.fold(ctx)
	}
	if left := m.budget - spent.fold - spent.copy; left > 0 && ctx.Err() == nil {
		spent.scrub = s.scrub(ctx, left)
	}
	return spent
}

// scrub spends bytes on repairing scrub windows, at the store's page size: a
// one-page window for each quarantined page a repair may still fix, then
// windows from the cursor, up to the end of a pass. A tick that found
// something keeps its forced trace.
func (s *server) scrub(ctx context.Context, bytes int64) int64 {
	m, st := s.maint, s.st()
	total, pageBytes := st.Layout().TotalPages(), st.Layout().PageSize()
	if gen := s.generation.Load(); gen != m.gen || m.cur.Page >= total {
		m.gen, m.cur, m.passPages, m.passRows, m.passProblems = gen, storage.ScrubCursor{}, 0, 0, 0
	}
	tctx, tr := s.traces.StartForced(ctx, "scrub")
	budget, read, found := bytes/pageBytes, int64(0), false
	window := func(from storage.ScrubCursor, hi int64) *storage.ScrubReport {
		rep, err := st.ScrubRange(tctx, from, hi, true)
		if err != nil {
			// ErrClosed: a swap or shutdown closed st; the next tick takes the new one.
			if !errors.Is(err, storage.ErrClosed) && ctx.Err() == nil {
				s.log.Warn("scrub", "page", from.Page, "err", err)
			}
			return nil
		}
		read += rep.Pages
		found = found || len(rep.Repaired) > 0 || !rep.OK()
		s.bookScrub(st, from.Page, rep)
		return rep
	}
	for _, p := range s.quarantinedPages() {
		if read >= budget {
			break
		}
		if p >= 0 && p < total && !s.unrepaired(st, p) && window(storage.ScrubCursor{Page: p}, p+1) == nil {
			break
		}
	}
	if read < budget && m.cur.Page < total {
		if rep := window(m.cur, m.cur.Page+budget-read); rep != nil {
			m.cur = rep.Next
			m.passPages, m.passRows, m.passProblems = m.passPages+rep.Pages, m.passRows+rep.Rows, m.passProblems+len(rep.Problems)
			if m.cur.Page == total {
				s.noteScrub("maintainer pass", m.passPages, m.passRows, m.passProblems)
			}
		}
	}
	if !found {
		tr.Discard()
	} else {
		s.metrics.observeTrace(tr, tr.Finish(nil))
	}
	return read * pageBytes
}
