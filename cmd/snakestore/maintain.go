package main

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	snakes "repro"
)

// maintainBudget is the I/O of one tick of the daemon's one background loop:
// at the default -maintain-interval of 1s, 1 MiB/s, or 128 scrubbed pages
// of 8 KiB.
const maintainBudget = 1 << 20

// maintainer is the loop's state. A migration's goroutine owns owed; the
// loop's goroutine owns the scrub cursor and pass.
type maintainer struct {
	budget    int64
	grants    chan int64    // a tick's bytes, offered to a migration waiting in pace
	used      chan int64    // what the granted migration tick copied
	owed      bool          // pace holds a grant it has not reported on
	stopped   chan struct{} // closed when the loop ends
	migrating atomic.Bool   // a reorganization is between its copy and its cutover
	stepping  atomic.Bool   // a reorg policy step is running
	oversize  bool          // pending cells exceed their extents (logged on change)

	// The scrub pass: its generation, where its next window starts, and
	// what its windows found so far.
	gen, passPages, passRows int64
	cur                      snakes.ScrubCursor
	passProblems             int
}

// tickSpend is what one tick spent of its budget, by step.
type tickSpend struct{ fold, copy, scrub int64 }

func newMaintainer(budget int64) *maintainer {
	return &maintainer{budget: budget, grants: make(chan int64), used: make(chan int64), stopped: make(chan struct{})}
}

// startMaintainer installs the maintainer and ticks it every interval until
// ctx ends or the daemon drains. With -adapt, the first tick at least
// adaptEvery after the last reorg policy step starts the next one, off the
// loop's goroutine: the migration it may start waits on the loop's grants.
func (s *server) startMaintainer(ctx context.Context, interval, adaptEvery time.Duration) {
	m := newMaintainer(maintainBudget)
	s.maint = m
	go func() {
		defer close(m.stopped)
		t := time.NewTicker(interval)
		defer t.Stop()
		lastStep := time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case now := <-t.C:
				if s.draining.Load() {
					return
				}
				if s.reorg != nil && now.Sub(lastStep) >= adaptEvery && m.stepping.CompareAndSwap(false, true) {
					lastStep = now
					go func() {
						defer m.stepping.Store(false)
						s.reorgStep(ctx)
					}()
				}
				s.maintainTick(ctx)
			}
		}
	}()
}

// maintainTick spends one tick's budget in a fixed order: fold pending
// deltas into the base file (charged in payload bytes), grant what is left
// to a reorganization's copy (in bytes copied), and scrub with the rest.
// Folding waits while a reorganization runs: its cutover carries every
// pending delta into the new generation, and a fold would checkpoint away
// an upsert to a cell the copy had already passed.
func (s *server) maintainTick(ctx context.Context) tickSpend {
	m := s.maint
	var spent tickSpend
	if s.ing != nil && !m.migrating.Load() {
		spent.fold = s.fold(ctx)
	}
	if left := m.budget - spent.fold; left > 0 {
		select {
		case m.grants <- left:
			spent.copy = <-m.used
		default:
		}
	}
	if left := m.budget - spent.fold - spent.copy; left > 0 && ctx.Err() == nil {
		spent.scrub = s.scrub(ctx, left)
	}
	return spent
}

// pace is a migration's pace hook under the maintainer: it reports what the
// last tick copied to the tick that granted it, then, unless the copy is
// over, waits for the next grant.
func (m *maintainer) pace(ctx context.Context, copied int64, last bool) (int64, error) {
	if m.owed {
		m.used <- copied
		m.owed = false
	}
	if last {
		return 0, nil
	}
	select {
	case bytes := <-m.grants:
		m.owed = true
		return bytes, nil
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-m.stopped:
		return 0, fmt.Errorf("maintenance stopped: %w", snakes.ErrClosed)
	}
}

// scrub spends bytes on repairing scrub windows, at the store's page size: a
// one-page window for each quarantined page a repair may still fix, then
// windows from the cursor, up to the end of a pass. A tick that found
// something keeps its forced trace.
func (s *server) scrub(ctx context.Context, bytes int64) int64 {
	m, st := s.maint, s.st()
	total, pageBytes := st.Layout().TotalPages(), st.Layout().PageSize()
	if gen := s.generation.Load(); gen != m.gen || m.cur.Page >= total {
		m.gen, m.cur, m.passPages, m.passRows, m.passProblems = gen, snakes.ScrubCursor{}, 0, 0, 0
	}
	tctx, tr := s.traces.StartForced(ctx, "scrub")
	budget, read, found := bytes/pageBytes, int64(0), false
	window := func(from snakes.ScrubCursor, hi int64) *snakes.ScrubReport {
		rep, err := st.ScrubRange(tctx, from, hi, true)
		if err != nil {
			// ErrClosed: a swap or shutdown closed st; the next tick takes the new one.
			if !errors.Is(err, snakes.ErrClosed) && ctx.Err() == nil {
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
		if p >= 0 && p < total && !s.unrepaired(st, p) && window(snakes.ScrubCursor{Page: p}, p+1) == nil {
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
	} else if tr != nil {
		s.metrics.observeTrace(tr, tr.Finish(nil))
	}
	return read * pageBytes
}
