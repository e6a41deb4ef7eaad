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
	"repro/internal/adaptive"
	"repro/internal/ingest"
	"repro/internal/storage"
	"repro/internal/trace"
)

// enableReorg wires the adaptive reorganizer onto the server: the policy
// watches the classes handleQuery observes, and the maintainer copies what
// it decides in scoring regions of regionCells target positions.
func (s *server) enableReorg(catPath, storeBase string, frames, regionCells int, cat *catalog, strat *snakes.Strategy, cfg snakes.ReorgConfig) error {
	s.catPath, s.storeBase, s.frames, s.regionCells, s.cat = catPath, storeBase, frames, regionCells, cat
	r, err := snakes.NewReorganizer(strat, cat.Generation, cfg)
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
	return nil
}

// reorgJob is a running reorganization: the decision, its copy, and its
// trace, open from the decision to the cutover, with the migrate span on ctx.
type reorgJob struct {
	d     *snakes.ReorgDecision
	mig   *snakes.Migration
	ctx   context.Context
	span  trace.SpanRef
	tr    *trace.Trace
	ticks int
}

// startReorg runs one policy step under a forced trace, discarded when the
// policy declines; when it decides, it starts the migration into the next
// generation file and hands it to the maintainer's slot.
func (s *server) startReorg(ctx context.Context, force bool) (*reorgJob, error) {
	tctx, tr := s.traces.StartForced(ctx, "reorg")
	d, err := s.reorg.Trigger(tctx, force)
	if err != nil {
		if adaptive.Skipped(err) || errors.Is(err, snakes.ErrReorgInProgress) {
			tr.Discard()
		} else {
			s.metrics.observeTrace(tr, tr.Finish(err))
		}
		return nil, err
	}
	j := &reorgJob{d: d, tr: tr}
	j.ctx, j.span = trace.Start(tctx, trace.KindMigrate, "")
	j.span.SetAttr("generation", int64(d.Generation))
	if j.mig, err = d.Strategy.StartMigration(j.ctx, s.st(), genPath(s.storeBase, d.Generation), s.frames, s.regionCells); err != nil {
		s.endReorg(j, err)
		return nil, err
	}
	s.reorg.Progress(j.mig.Progress())
	m := s.maint
	m.mu.Lock()
	if m.ended {
		m.mu.Unlock()
		j.mig.Abort()
		s.endReorg(j, errMaintStopped)
		return nil, errMaintStopped
	}
	m.job = j
	m.mu.Unlock()
	return j, nil
}

// endReorg empties the maintainer's slot, reports the reorganization's
// outcome to the reorganizer and closes its trace. The slot holds j or
// nothing: Trigger's claim, released by Finish, admits one reorganization
// at a time.
func (s *server) endReorg(j *reorgJob, err error) {
	m := s.maint
	m.mu.Lock()
	m.job = nil
	m.mu.Unlock()
	j.span.SetError(err)
	j.span.End()
	s.reorg.Finish(j.d, err)
	s.metrics.observeTrace(j.tr, j.tr.Finish(err))
}

// cutover runs on the maintainer's loop once the copy is done: flush and
// commit the new generation, drain readers off the old one, and delete the
// old file only after the new one passes a full scrub. A crash after the
// catalog commit leaves at most a stale file that startup cleanup removes.
func (s *server) cutover(j *reorgJob) error {
	old := s.st()
	dst, err := j.mig.Finish(j.ctx)
	if err != nil {
		return err
	}
	s.log.Info("reorg", "how", "incremental region copy complete", "ticks", j.ticks, "gen", j.d.Generation)
	s.armStore(dst)
	oldPath, err := s.commitGeneration(j.ctx, j.d, dst)
	if err != nil {
		return err
	}

	// The quarantine's page ids belong to the retired generation; the
	// post-swap scrub below re-detects anything wrong with the new one.
	s.mu.Lock()
	s.quarantine, s.healing = make(map[int64]quarantined), false
	s.mu.Unlock()

	// New requests already run on dst. Close the old generation — Close
	// waits for its in-flight readers — then gate the old file's deletion on
	// a clean scrub of the new one, past any cancellation of ctx: a
	// committed swap must not be abandoned half-tidied.
	pctx := context.WithoutCancel(j.ctx)
	dsp := trace.StartLeaf(pctx, trace.KindDrain, "")
	if err := old.Close(); err != nil && !errors.Is(err, storage.ErrClosed) {
		s.log.Warn("reorg", "how", "closing old generation", "err", err)
	}
	dsp.End()
	vctx, vsp := trace.Start(pctx, trace.KindVerify, "")
	rep, verr := dst.VerifyCtx(vctx)
	vsp.SetError(verr)
	vsp.End()
	if verr == nil && !rep.OK() {
		verr = fmt.Errorf("%d problem(s)", len(rep.Problems))
		for _, p := range rep.Problems {
			if errors.Is(p.Err, storage.ErrCorruptPage) {
				s.noteCorrupt(fmt.Errorf("post-reorg scrub: %w", p.Err))
			}
		}
	}
	if verr != nil {
		// The swap stands (the catalog already points at the new
		// generation) but the old file is kept as a recovery artifact.
		s.log.Warn("reorg", "how", "post-swap scrub not clean; keeping old generation file", "err", verr)
		return nil
	}
	for _, p := range []string{oldPath, storage.ParityPath(oldPath)} {
		if err := os.Remove(p); err != nil && !os.IsNotExist(err) {
			s.log.Warn("reorg", "how", "removing old generation file", "path", p, "err", err)
		}
	}
	return nil
}

// commitGeneration makes dst, the finished copy for d, the serving
// generation — deltas carried, parity written, catalog committed, pointer
// swapped, old delta log retired — and returns the old generation's path.
// On failure everything written for dst is removed and the old one serves.
func (s *server) commitGeneration(ctx context.Context, d *snakes.ReorgDecision, dst *snakes.FileStore) (oldPath string, err error) {
	newPath := genPath(s.storeBase, d.Generation)
	var newLog *ingest.Log
	defer func() {
		if err != nil {
			if newLog != nil {
				newLog.Close()
				os.Remove(newLog.Path())
			}
			dst.Close()
			os.Remove(newPath)
			os.Remove(storage.ParityPath(newPath))
		}
	}()
	if s.ing != nil {
		// Fold every entry still in the log into dst (PutCellBytes is an
		// idempotent replace), holding puts off through the swap so none
		// lands in the old log after its tail was carried.
		s.ing.mu.Lock()
		defer s.ing.mu.Unlock()
		for _, p := range s.ing.log.SnapshotPending() {
			if err := dst.PutCellBytes(p.Cell, p.Payload); err != nil {
				return "", fmt.Errorf("reorg: carrying delta for cell %d: %w", p.Cell, err)
			}
		}
		if err := dst.Pool().Flush(); err != nil {
			return "", err
		}
		if newLog, err = ingest.Open(ingest.DeltaPath(newPath), int64(d.Generation), s.ing.opt); err != nil {
			return "", err
		}
		dst.SetOverlay(newLog.Overlay())
	}
	// The parity sidecar is written before the catalog commit, so a
	// generation is never live without its repair coverage; a crash in
	// between leaves stale files that startup cleanup sweeps. It keeps the
	// serving generation's group (0, the default, when that has none).
	if err := dst.WriteParity(storage.ParityPath(newPath), s.st().ParityGroup()); err != nil {
		return "", err
	}
	stratJSON, err := snakes.MarshalStrategy(d.Strategy)
	if err != nil {
		return "", err
	}

	// Commit point: catalog first, then the serving pointer, under swapMu
	// so a concurrent drain either beats the commit (we abort) or closes
	// the store we just installed.
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if s.draining.Load() {
		return "", fmt.Errorf("reorg aborted: daemon draining: %w", storage.ErrClosed)
	}
	oldPath = activeStorePath(s.cat, s.storeBase)
	cat := *s.cat
	cat.Version, cat.Strategy, cat.Generation, cat.StoreFile = catalogVersion, stratJSON, d.Generation, filepath.Base(newPath)
	csp := trace.StartLeaf(ctx, trace.KindCatalogCommit, "")
	err = s.commitCatalog(cat, dst)
	csp.SetError(err)
	csp.End()
	if err != nil {
		return "", err
	}
	ssp := trace.StartLeaf(ctx, trace.KindSwap, "")
	ssp.SetAttr("generation", int64(d.Generation))
	s.store.Store(dst)
	s.generation.Store(int64(d.Generation))
	ssp.End()

	// Retire the old delta log: its entries are all in dst, and it would
	// fail its generation check on the next startup.
	if s.ing != nil {
		oldLog := s.ing.log
		s.ing.log = newLog
		if err := oldLog.Close(); err != nil {
			s.log.Warn("reorg", "how", "closing retired delta log", "err", err)
		}
		if err := os.Remove(oldLog.Path()); err != nil && !os.IsNotExist(err) {
			s.log.Warn("reorg", "how", "removing retired delta log", "err", err)
		}
	}
	return oldPath, nil
}

// handleReorg exposes the adaptive reorganizer: GET reports the policy's
// status (generation, regret, hysteresis, migration progress, last
// outcome); POST runs one policy step now (?force=1 bypasses the
// thresholds) and, when it decides, starts the migration and answers 202,
// leaving the copy and cutover to the maintainer's ticks, or 409 while a
// reorganization runs.
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
		j, err := s.startReorg(context.WithoutCancel(r.Context()), r.URL.Query().Get("force") == "1")
		switch {
		case err == nil:
			w.WriteHeader(http.StatusAccepted)
			json.NewEncoder(w).Encode(map[string]any{"triggered": true, "generation": j.d.Generation, "regret": j.d.Regret})
		case adaptive.Skipped(err):
			json.NewEncoder(w).Encode(map[string]any{"triggered": false, "reason": err.Error()})
		default:
			s.writeErr(w, err)
		}
	default:
		s.writeErr(w, usagef("method %s not allowed on /reorg", r.Method))
	}
}
