package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	snakes "repro"
	"repro/internal/obsevent"
	"repro/internal/storage"
	"repro/internal/trace"
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

// noteCorrupt records a corrupt page in the quarantine set, keeping the
// first error seen for it.
func (s *server) noteCorrupt(err error) {
	var cpe *storage.CorruptPageError
	page := int64(-1)
	if errors.As(err, &cpe) {
		page = cpe.Page
	}
	s.mu.Lock()
	if _, seen := s.quarantine[page]; !seen {
		s.quarantine[page] = quarantined{reason: err.Error()}
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

// clearQuarantined re-admits one page after it verified clean.
func (s *server) clearQuarantined(page int64) {
	s.mu.Lock()
	delete(s.quarantine, page)
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

// noteRepair books one page's repair outcome: the repair metrics, the
// quarantine (a repaired page leaves it, damage repair cannot fix enters it
// with its typed error) and the log line. A failure is counted and logged
// once per page and generation: a retry that fails again changes nothing
// but the parity reading it waits on.
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
	s.mu.Unlock()
	if !again {
		s.metrics.repairFailures.Inc()
		s.log.Warn("repair", "page", page, "err", err)
	}
}

// bookScrub books a repairing scrub window for the maintainer and POST
// /repair alike: its pages, each page it repaired and each problem repair
// could not fix through noteRepair; a quarantined page it read clean, and
// whose cells it judged, leaves the quarantine.
func (s *server) bookScrub(st *snakes.FileStore, lo int64, rep *storage.ScrubReport) {
	s.metrics.scrubPages.Add(rep.Pages)
	bad := make(map[int64]bool, len(rep.Problems))
	for _, p := range rep.Repaired {
		s.noteRepair(st, p, nil)
	}
	for _, pr := range rep.Problems {
		s.noteRepair(st, pr.Page, pr.Err)
		bad[pr.Page] = true
	}
	for _, p := range s.quarantinedPages() {
		if p >= lo && p < rep.Settled && !bad[p] {
			s.clearQuarantined(p)
		}
	}
}

// noteScrub records a scrub of the whole store for /healthz's lastScrub:
// what it found over how many pages and records (rows, as /query counts
// them), how it ran and when.
func (s *server) noteScrub(how string, pages, rows int64, problems int) {
	summary := fmt.Sprintf("clean: %d pages, %d records", pages, rows)
	if problems > 0 {
		summary = fmt.Sprintf("%d problem(s) in %d pages, %d records", problems, pages, rows)
	}
	s.mu.Lock()
	s.lastScrub = fmt.Sprintf("%s (%s, %s)", summary, how, time.Now().UTC().Format(time.RFC3339))
	s.mu.Unlock()
}

// handleScrub serves GET /verify and POST /repair: one scrub window over
// the whole store, repairing on /repair, for operators who do not want to
// wait for the maintainer's cursor. /verify quarantines the damaged pages
// it finds; /repair books its window as the maintainer does.
func (s *server) handleScrub(repair bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if repair && r.Method != http.MethodPost {
			s.writeErr(w, usagef("method %s not allowed on /repair; POST to run a repair sweep", r.Method))
			return
		}
		ctx, cancel := s.requestCtx(r)
		defer cancel()
		st := s.st()
		s.mu.Lock()
		if repair {
			s.healing = len(s.quarantine) > 0
		}
		s.mu.Unlock()
		rep, err := st.ScrubRange(ctx, storage.ScrubCursor{}, st.Layout().TotalPages(), repair)
		s.mu.Lock()
		s.healing = s.healing && !repair
		if err != nil {
			s.lastScrub = "aborted: " + err.Error()
		}
		s.mu.Unlock()
		if err != nil {
			s.writeErr(w, err)
			return
		}
		problems := make([]string, 0, len(rep.Problems))
		for _, p := range rep.Problems {
			problems = append(problems, p.String())
			if !repair && errors.Is(p.Err, storage.ErrCorruptPage) {
				s.noteCorrupt(fmt.Errorf("scrub: %w", p.Err))
			}
		}
		body := map[string]any{"pages": rep.Pages, "records": rep.Rows, "cells": rep.Cells, "ok": rep.OK(), "problems": problems}
		how := "GET /verify"
		if repair {
			how = "POST /repair"
			s.bookScrub(st, 0, rep)
			if rep.OK() {
				// Everything detectable was repaired: any quarantine
				// leftovers are entries for pages outside the store.
				s.mu.Lock()
				s.quarantine = make(map[int64]quarantined)
				s.mu.Unlock()
			}
			s.log.Info("repair", "req", reqIDFrom(ctx), "pages", rep.Pages, "repaired", len(rep.Repaired), "failed", len(rep.Problems))
			if ev := obsevent.FromContext(ctx); ev != nil {
				ev.Records = rep.Pages
			}
			body["repaired"], body["failed"], body["health"] = rep.Repaired, problems, s.healthState()
			if tr := trace.FromContext(ctx); tr != nil {
				body["traceId"] = tr.ID()
			}
		}
		s.noteScrub(how, rep.Pages, rep.Rows, len(rep.Problems))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(body)
	}
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
