package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	snakes "repro"
)

// quarantined is what the daemon knows of one damaged page: the first error
// seen for it and, once parity could not repair it, the store generation
// and the reading of the page's parity clock (FileStore.ParityWrites) at
// that failure. A repair fails the same way until one of the two moves, so
// the scrubber does not retry it before then; POST /repair always does.
type quarantined struct {
	reason string
	failed bool
	gen    int64
	parity uint64
}

// noteCorrupt records a corrupt page in the quarantine set.
func (s *server) noteCorrupt(err error) {
	var cpe *snakes.CorruptPageError
	page := int64(-1)
	if errors.As(err, &cpe) {
		page = cpe.Page
	}
	s.markQuarantined(page, err.Error())
}

// markQuarantined records one page in the quarantine set, keeping the first
// error seen for it.
func (s *server) markQuarantined(page int64, reason string) {
	s.mu.Lock()
	if _, seen := s.quarantine[page]; !seen {
		s.quarantine[page] = quarantined{reason: reason}
	}
	s.mu.Unlock()
}

// unrepaired reports whether page failed a repair that would fail again:
// parity could not rebuild it at this generation, and its parity group has
// not been written since.
func (s *server) unrepaired(st *snakes.FileStore, page int64) bool {
	s.mu.Lock()
	q, ok := s.quarantine[page]
	s.mu.Unlock()
	return ok && q.failed && q.gen == s.generation.Load() && q.parity == st.ParityWrites(page)
}

// clearQuarantined re-admits one page after it verified clean. The healing
// state ends when the quarantine empties — the scrubber has worked through
// everything it detected.
func (s *server) clearQuarantined(page int64) {
	s.mu.Lock()
	delete(s.quarantine, page)
	if len(s.quarantine) == 0 {
		s.healing = false
	}
	s.mu.Unlock()
}

// quarantinedPages snapshots the quarantine set, sorted.
func (s *server) quarantinedPages() []int64 {
	s.mu.Lock()
	pages := make([]int64, 0, len(s.quarantine))
	for p := range s.quarantine {
		pages = append(pages, p)
	}
	s.mu.Unlock()
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	return pages
}

// healthState reports the serving health state machine's current state.
func (s *server) healthState() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case s.healing:
		return "healing"
	case len(s.quarantine) > 0:
		return "degraded"
	default:
		return "ok"
	}
}

// noteRepair books one page's repair outcome for the scrubber and for
// POST /repair alike: the repair metrics, the quarantine (a repaired page
// leaves it, damage repair cannot fix enters it with its typed error), the
// healing flag and the log line. A failure is counted and logged once per
// page and generation: a retry that fails again changes nothing but the
// parity reading it waits on.
func (s *server) noteRepair(st *snakes.FileStore, page int64, err error) {
	if err == nil {
		s.metrics.pagesRepaired.Inc()
		s.clearQuarantined(page)
		s.log.Info("repair", "page", page, "how", "reconstructed from parity")
		return
	}
	gen := s.generation.Load()
	s.mu.Lock()
	q, seen := s.quarantine[page]
	again := seen && q.failed && q.gen == gen
	if !seen {
		q.reason = err.Error()
	}
	q.failed, q.gen, q.parity = true, gen, st.ParityWrites(page)
	s.quarantine[page] = q
	s.healing = false // damage this pass cannot heal: back to degraded
	s.mu.Unlock()
	if !again {
		s.metrics.repairFailures.Inc()
		s.log.Warn("repair", "page", page, "err", err)
	}
}

// runScrubLoop is the paced background scrubber: it walks the store's pages
// continuously at about rate pages/sec (in batches, so the pacing costs one
// timer per batch rather than one per page), re-checks quarantined pages
// first, repairs checksum failures from parity on the spot, and re-admits
// repaired pages from quarantine. The loop follows generation hot-swaps by
// re-snapshotting the serving store every batch, rides out ErrClosed races
// with a swap, and stops when the daemon drains or ctx ends. Batches that
// performed repairs are retained as forced traces (a scrub span with repair
// children); uneventful batches discard their trace.
func (s *server) runScrubLoop(ctx context.Context, rate float64) {
	if rate <= 0 {
		return
	}
	batch := int64(rate / 10)
	if batch < 1 {
		batch = 1
	}
	interval := time.Duration(float64(batch) / rate * float64(time.Second))
	t := time.NewTicker(interval)
	defer t.Stop()
	var cursor int64
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if s.draining.Load() {
				return
			}
			cursor = s.scrubBatch(ctx, cursor, batch)
		}
	}
}

// scrubBatch checks up to n pages starting at cursor against the current
// generation and returns the cursor for the next batch (wrapping at the end
// of the store, so the walk is continuous).
func (s *server) scrubBatch(ctx context.Context, cursor, n int64) int64 {
	st := s.st()
	total := st.Layout().TotalPages()
	if total == 0 {
		return 0
	}
	if cursor >= total {
		cursor = 0
	}
	tctx, tr := s.traces.StartForced(ctx, "scrub")
	sctx, ssp := snakes.StartTraceSpan(tctx, snakes.TraceKindScrub, "")
	checked, repairs := int64(0), 0
	check := func(p int64) {
		if p >= total || s.unrepaired(st, p) {
			return // quarantined id from an older, larger generation, or a repair that would fail again
		}
		err := st.CheckPage(p)
		checked++
		s.metrics.scrubPages.Inc()
		switch {
		case err == nil:
			s.clearQuarantined(p)
		case errors.Is(err, snakes.ErrClosed):
			// Generation swapped or daemon closing mid-batch; the next
			// batch re-snapshots the store.
		case errors.Is(err, snakes.ErrCorruptPage):
			repairs++
			s.mu.Lock()
			s.healing = true
			s.mu.Unlock()
			rsp := snakes.StartTraceLeaf(sctx, snakes.TraceKindRepair, "")
			rsp.SetAttr("page", p)
			err = st.RepairPage(p)
			rsp.SetError(err)
			rsp.End()
			s.noteRepair(st, p, err)
		default:
			s.log.Warn("scrub", "page", p, "err", err)
		}
	}
	// Quarantined pages jump the queue: a page a query tripped over gets
	// repaired within one batch instead of waiting for the cursor.
	for _, p := range s.quarantinedPages() {
		check(p)
	}
	end := cursor + n
	if end > total {
		end = total
	}
	for p := cursor; p < end; p++ {
		check(p)
	}
	ssp.SetAttr("pages", checked)
	ssp.End()
	if repairs == 0 {
		tr.Discard()
	} else if tr != nil {
		res := tr.Finish(nil)
		s.metrics.observeTrace(tr, res)
	}
	if end >= total {
		return 0
	}
	return end
}

// handleVerify scrubs the store under the request's context and records the
// outcome for /healthz.
func (s *server) handleVerify(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	rep, err := s.st().VerifyCtx(ctx)
	if err != nil {
		s.mu.Lock()
		s.lastScrub = "aborted: " + err.Error()
		s.mu.Unlock()
		s.writeErr(w, err)
		return
	}
	problems := make([]string, 0, len(rep.Problems))
	for _, p := range rep.Problems {
		problems = append(problems, p.String())
		if errors.Is(p.Err, snakes.ErrCorruptPage) {
			s.noteCorrupt(fmt.Errorf("scrub: %w", p.Err))
		}
	}
	summary := fmt.Sprintf("clean: %d pages, %d records", rep.Pages, rep.Records)
	if !rep.OK() {
		summary = fmt.Sprintf("%d problem(s) in %d pages", len(rep.Problems), rep.Pages)
	}
	s.mu.Lock()
	s.lastScrub = summary
	s.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"pages":    rep.Pages,
		"records":  rep.Records,
		"ok":       rep.OK(),
		"problems": problems,
	})
}

// handleRepair serves POST /repair: one full repair sweep of the current
// generation, on demand — the synchronous counterpart of the background
// scrubber for operators who do not want to wait for the cursor to come
// around. Repaired pages leave quarantine immediately; unrepairable damage
// is quarantined with its typed error and reported in the response.
func (s *server) handleRepair(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeErr(w, usagef("method %s not allowed on /repair; POST to run a repair sweep", r.Method))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	st := s.st()
	s.mu.Lock()
	s.healing = len(s.quarantine) > 0
	s.mu.Unlock()
	rep, err := st.RepairCtx(ctx)
	s.metrics.scrubPages.Add(rep.Pages)
	if err != nil {
		s.mu.Lock()
		s.healing = false
		s.mu.Unlock()
		s.writeErr(w, err)
		return
	}
	for _, p := range rep.Repaired {
		s.noteRepair(st, p, nil)
	}
	failed := make([]string, 0, len(rep.Failed))
	for _, pr := range rep.Failed {
		s.noteRepair(st, pr.Page, pr.Err)
		failed = append(failed, pr.String())
	}
	s.mu.Lock()
	if rep.OK() {
		// Everything detectable was repaired: any quarantine leftovers are
		// stale entries for pages that now read clean.
		s.quarantine = make(map[int64]quarantined)
	}
	s.healing = false
	s.mu.Unlock()
	s.log.Info("repair",
		"req", reqIDFrom(ctx), "pages", rep.Pages, "repaired", len(rep.Repaired), "failed", len(rep.Failed))
	if ev := snakes.EventFromContext(ctx); ev != nil {
		ev.Records = rep.Pages
	}
	body := map[string]any{
		"pages":    rep.Pages,
		"repaired": rep.Repaired,
		"failed":   failed,
		"ok":       rep.OK(),
		"health":   s.healthState(),
	}
	if tr := snakes.TraceFromContext(ctx); tr != nil {
		body["traceId"] = tr.ID()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// handleHealthz reports serving health: pool and admission stats, the
// quarantined page set, and the last scrub outcome. Status degrades when
// any page is quarantined, and the endpoint fails outright with 503
// "draining" the moment graceful shutdown begins — a load balancer probing
// /healthz must pull the instance immediately, not keep routing to it for
// the rest of the drain window.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]any{"status": "draining"})
		return
	}
	s.mu.Lock()
	lastScrub := s.lastScrub
	s.mu.Unlock()
	pages := s.quarantinedPages()
	st := s.st()
	body := map[string]any{
		"status":           s.healthState(),
		"generation":       s.generation.Load(),
		"startedAt":        s.started.UTC().Format(time.RFC3339),
		"uptimeSeconds":    time.Since(s.started).Seconds(),
		"pool":             st.Pool().Stats(),
		"admission":        s.adm.StatsSnapshot(),
		"quarantinedPages": pages,
		"lastScrub":        lastScrub,
		"parity":           map[string]any{"attached": st.HasParity(), "group": st.ParityGroup()},
		"events": map[string]any{
			"published":   s.events.Published(),
			"overwritten": s.events.Overwritten(),
			"capacity":    s.events.Capacity(),
		},
	}
	if calib := s.calib.Snapshot(); len(calib) > 0 {
		body["calibration"] = map[string]any{
			"classes": calib,
			"drifted": s.calib.DriftedClasses(),
		}
	}
	if s.slo != nil {
		classes, worst := s.slo.Status()
		body["slo"] = map[string]any{
			"state":   worst,
			"classes": classes,
		}
		body["sloState"] = worst
	}
	if s.ing != nil {
		s.ing.mu.Lock()
		l := s.ing.log
		ticks, cells, bytes := s.ing.comp.Ticks()
		ingest := map[string]any{
			"pendingCells":       l.PendingCells(),
			"pendingBytes":       l.PendingBytes(),
			"puts":               l.Puts(),
			"compactionTicks":    ticks,
			"compactedCells":     cells,
			"compactedBytes":     bytes,
			"compactionLagSecs":  l.OldestPendingAge(time.Now()).Seconds(),
			"writeRateBytesPerS": s.ing.rate.Rate(time.Now()),
		}
		s.ing.mu.Unlock()
		body["ingest"] = ingest
	}
	json.NewEncoder(w).Encode(body)
}
