package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	snakes "repro"
)

// enableReorg wires the adaptive reorganizer onto the server: the policy
// watches the classes handleQuery observes, and when it fires the server's
// reorgMigrate runs the migration and the generation swap.
func (s *server) enableReorg(catPath, storeBase string, frames int, cat *catalog, strat *snakes.Strategy, cfg snakes.ReorgConfig) error {
	s.catPath, s.storeBase, s.frames, s.cat = catPath, storeBase, frames, cat
	r, err := snakes.NewReorganizer(strat, cat.Generation, s.reorgMigrate, cfg)
	if err != nil {
		return err
	}
	r.OnEvaluate(func(e snakes.ReorgEvaluation) { s.metrics.reorgRegret.Set(e.Regret) })
	if s.calibrateRegret {
		// Regret in observed cost: the calibration watch's global seek
		// ratio maps the analytic model onto what the store actually pays.
		r.SetCostCorrection(s.calib.SeekCorrection)
	}
	r.OnReorg(func(outcome string, d time.Duration) {
		s.metrics.observeReorg(outcome, d.Seconds())
		s.log.Info("reorg", "outcome", outcome, "dur", d.Round(time.Millisecond), "gen", s.generation.Load())
	})
	s.reorg = r
	s.generation.Store(int64(cat.Generation))
	return nil
}

// reorgMigrate is the mechanism half of a reorganization: copy the store
// into the next generation file under the new strategy, persist the catalog
// (atomically, before anything is deleted), hot-swap the serving pointer,
// drain readers off the old generation, and delete the old file only after
// the new one passes a full scrub. A failure at any point before the
// catalog write aborts with the old generation untouched and no partial
// files; a crash after the catalog write leaves at most a stale file that
// startup cleanup removes.
func (s *server) reorgMigrate(ctx context.Context, d *snakes.ReorgDecision) error {
	old := s.st()
	newPath := genPath(s.storeBase, d.Generation)
	// The copy is paced, never the whole file in one burst: by the
	// maintainer's grants when it runs, else by the policy's own pacing
	// (d.Migrate). Upserts pending in old's overlay ride along.
	opt := d.Migrate
	if m := s.maint; m != nil {
		opt.Pace = m.pace
		m.migrating.Store(true)
		defer m.migrating.Store(false)
	}
	dst, ticks, err := d.Strategy.MigrateCtx(ctx, old, newPath, s.frames, opt)
	if err != nil {
		return err
	}
	s.log.Info("reorg", "how", "incremental region copy complete", "ticks", ticks, "gen", d.Generation)
	s.armStore(dst)
	var newLog *snakes.DeltaLog
	abort := func(err error) error {
		if newLog != nil {
			newLog.Close()
			os.Remove(newLog.Path())
		}
		dst.Close()
		os.Remove(newPath)
		os.Remove(snakes.ParityPath(newPath))
		return err
	}
	// Cutover: block puts and compaction ticks, fold every entry still in
	// the log into the new generation (upserts that landed during the copy,
	// plus already-copied ones — PutCellBytes is an idempotent replace), and
	// open the new generation's fresh log. ing.mu is held through the swap
	// below so no put can land in the old log after its tail was carried.
	ingLocked := false
	unlockIngest := func() {
		if ingLocked {
			s.ing.mu.Unlock()
			ingLocked = false
		}
	}
	if s.ing != nil {
		s.ing.mu.Lock()
		ingLocked = true
	}
	defer unlockIngest()
	if s.ing != nil {
		for _, p := range s.ing.log.SnapshotPending() {
			if perr := dst.PutCellBytes(p.Cell, p.Payload); perr != nil {
				return abort(fmt.Errorf("reorg: carrying delta for cell %d: %w", p.Cell, perr))
			}
		}
		if ferr := dst.Pool().Flush(); ferr != nil {
			return abort(ferr)
		}
		newLog, err = snakes.OpenDeltaLog(snakes.DeltaPath(newPath), int64(d.Generation), s.ing.opt)
		if err != nil {
			return abort(err)
		}
		snakes.AttachDeltaLog(dst, newLog)
	}
	// The new generation's parity sidecar is written before the catalog
	// commit, so a generation is never live without its repair coverage; a
	// crash in between leaves stale files that startup cleanup sweeps.
	if err := dst.WriteParity(snakes.ParityPath(newPath), s.parityGroup); err != nil {
		return abort(err)
	}
	stratJSON, err := snakes.MarshalStrategy(d.Strategy)
	if err != nil {
		return abort(err)
	}

	// Commit point: catalog first (atomic rename), then the serving
	// pointer, all under swapMu so a concurrent drain either beats the
	// commit (we abort) or closes the store we just installed. Each phase
	// gets its own span, so a migration trace shows catalog commit, swap,
	// drain, and verify separately.
	s.swapMu.Lock()
	if s.draining.Load() {
		s.swapMu.Unlock()
		return abort(fmt.Errorf("reorg aborted: daemon draining: %w", snakes.ErrClosed))
	}
	oldPath := activeStorePath(s.cat, s.storeBase)
	cat := *s.cat
	cat.Version = catalogVersion
	cat.Strategy = stratJSON
	cat.Generation = d.Generation
	cat.StoreFile = filepath.Base(newPath)
	csp := snakes.StartTraceLeaf(ctx, snakes.TraceKindCatalogCommit, "")
	if err := s.commitCatalog(cat, dst); err != nil {
		csp.SetError(err)
		csp.End()
		s.swapMu.Unlock()
		return abort(err)
	}
	csp.End()
	ssp := snakes.StartTraceLeaf(ctx, snakes.TraceKindSwap, "")
	ssp.SetAttr("generation", int64(d.Generation))
	s.store.Store(dst)
	s.generation.Store(int64(d.Generation))
	ssp.End()
	s.swapMu.Unlock()

	// The new generation is serving; retire the old delta log. Its entries
	// were all folded into dst under ing.mu above, so the file is dead
	// weight (and would fail its generation check on the next startup).
	if s.ing != nil {
		oldLog := s.ing.log
		s.ing.log = newLog
		newLog = nil // the abort path must not remove the serving log
		if cerr := oldLog.Close(); cerr != nil {
			s.log.Warn("reorg", "how", "closing retired delta log", "err", cerr)
		}
		if rerr := os.Remove(oldLog.Path()); rerr != nil && !os.IsNotExist(rerr) {
			s.log.Warn("reorg", "how", "removing retired delta log", "err", rerr)
		}
	}
	unlockIngest()

	// The quarantine describes pages of the generation that just retired;
	// carrying its page ids against the new file would keep /healthz
	// degraded forever on damage that no longer exists. The post-swap scrub
	// below re-detects anything actually wrong with the new generation.
	s.mu.Lock()
	s.quarantine = make(map[int64]quarantined)
	s.healing = false
	s.mu.Unlock()

	// The swap is committed: new requests already run on dst. Close the
	// old generation — Close blocks until its in-flight readers drain —
	// then gate the old file's deletion on a clean scrub of the new one.
	// The post-swap work keeps the trace but drops ctx's cancellation: a
	// canceled trigger must not abandon a committed swap half-tidied.
	pctx := context.WithoutCancel(ctx)
	dsp := snakes.StartTraceLeaf(pctx, snakes.TraceKindDrain, "")
	if err := old.Close(); err != nil && !errors.Is(err, snakes.ErrClosed) {
		s.log.Warn("reorg", "how", "closing old generation", "err", err)
	}
	dsp.End()
	vctx, vsp := snakes.StartTraceSpan(pctx, snakes.TraceKindVerify, "")
	rep, verr := dst.VerifyCtx(vctx)
	vsp.SetError(verr)
	vsp.End()
	if verr != nil || !rep.OK() {
		if verr == nil {
			verr = fmt.Errorf("%d problem(s)", len(rep.Problems))
			for _, p := range rep.Problems {
				if errors.Is(p.Err, snakes.ErrCorruptPage) {
					s.noteCorrupt(fmt.Errorf("post-reorg scrub: %w", p.Err))
				}
			}
		}
		// The swap stands (the catalog already points at the new
		// generation) but the old file is kept as a recovery artifact.
		s.log.Warn("reorg", "how", "post-swap scrub not clean; keeping old generation file", "err", verr)
		return nil
	}
	if oldPath != newPath {
		if err := os.Remove(oldPath); err != nil && !os.IsNotExist(err) {
			s.log.Warn("reorg", "how", "removing old generation file", "err", err)
		}
		if err := os.Remove(snakes.ParityPath(oldPath)); err != nil && !os.IsNotExist(err) {
			s.log.Warn("reorg", "how", "removing old generation parity sidecar", "err", err)
		}
	}
	return nil
}

// handleReorg exposes the adaptive reorganizer: GET reports the policy's
// status (generation, regret, hysteresis, migration progress, last
// outcome), POST triggers one policy step now — with ?force=1 the
// thresholds are bypassed and the current DP optimum deployed
// unconditionally. A POST while a migration is already running answers 409.
func (s *server) handleReorg(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	switch r.Method {
	case http.MethodGet:
		if s.reorg == nil {
			json.NewEncoder(w).Encode(map[string]any{"enabled": false, "generation": s.generation.Load()})
			return
		}
		json.NewEncoder(w).Encode(map[string]any{"enabled": true, "status": s.reorg.Status()})
	case http.MethodPost:
		if s.reorg == nil {
			s.writeErr(w, usagef("adaptive reorganization is disabled; restart serve with -adapt"))
			return
		}
		// Migrations can legitimately outlast the per-request timeout, so
		// the trigger runs under the raw request context: a disconnecting
		// client cancels the migration cleanly (partial output removed).
		d, err := s.reorg.Trigger(r.Context(), r.URL.Query().Get("force") == "1")
		switch {
		case err == nil:
			json.NewEncoder(w).Encode(map[string]any{
				"triggered":  true,
				"generation": d.Generation,
				"regret":     d.Regret,
			})
		case snakes.ReorgSkipped(err):
			json.NewEncoder(w).Encode(map[string]any{"triggered": false, "reason": err.Error()})
		default:
			s.writeErr(w, err)
		}
	default:
		s.writeErr(w, usagef("method %s not allowed on /reorg", r.Method))
	}
}

// reorgStep runs one policy step under a forced trace, so a migration's
// spans land in /debug/traces; a step where the policy declines discards
// it. Errors are absorbed into the reorganizer's status and metrics.
func (s *server) reorgStep(ctx context.Context) {
	tctx, tr := s.traces.StartForced(ctx, "reorg-tick")
	_, err := s.reorg.Trigger(tctx, false)
	switch {
	case snakes.ReorgSkipped(err) || errors.Is(err, snakes.ErrReorgInProgress):
		tr.Discard()
	default:
		res := tr.Finish(err)
		if tr != nil {
			s.metrics.observeTrace(tr, res)
		}
	}
}
