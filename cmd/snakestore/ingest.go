package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	snakes "repro"
	"repro/internal/ingest"
	"repro/internal/obsevent"
	"repro/internal/rowcodec"
	"repro/internal/storage"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The daemon's write path: POST /ingest lands whole-cell upserts in a
// delta log beside the store file, reads merge them automatically through
// the store's overlay hook, and a background compactor folds them into the
// base file in paced ticks (heaviest linearization regions first). The
// catalog is committed before every checkpoint, so an acknowledged write
// survives any crash: it is either in the base file (catalog knows) or
// still in the log (startup recovery replays it).

// ingestState is the server's write-path machinery; nil when -ingest is
// off. mu serializes puts against the maintainer's folds and cutovers:
// puts hold it briefly to append, a fold for one bounded apply pass, and a
// cutover while it carries the log's tail and swaps in a fresh log.
type ingestState struct {
	mu   sync.Mutex
	log  *ingest.Log
	comp *ingest.Compactor
	opt  ingest.Options
	rate *workload.RateTracker
	// poisoned is the log whose refusal of writes was logged, so the
	// transition is one WARN line, not one per request.
	poisoned *ingest.Log
}

// enableIngest opens the active generation's delta log, replays any
// entries a crash left pending into the base store (redo recovery), and
// wires the compactor (scoring regionCells positions a window, folding up to
// a maintenance tick's budget) and its metrics. Must run before serving
// starts.
func (s *server) enableIngest(catPath, storeBase string, cat *catalog, dopt ingest.Options, regionCells int) error {
	s.catPath, s.storeBase, s.cat = catPath, storeBase, cat
	active := activeStorePath(cat, storeBase)
	l, err := ingest.Open(ingest.DeltaPath(active), int64(cat.Generation), dopt)
	if err != nil {
		return err
	}
	st := s.st()
	if l.PendingCells() > 0 {
		applied, n, err := ingest.Recover(context.Background(), st, l)
		if err != nil {
			l.Close()
			return fmt.Errorf("delta recovery: %w", err)
		}
		// A crash mid-compaction may have patched the parity sidecar for
		// base pages that never reached disk, so after the redo pass the
		// sidecar is rebuilt from the recovered base content.
		if st.HasParity() {
			if perr := st.WriteParity(storage.ParityPath(active), st.ParityGroup()); perr != nil {
				fmt.Fprintf(os.Stderr, "snakestore: rebuilding parity after delta recovery: %v\n", perr)
			}
		}
		// Catalog before checkpoint: once the log forgets an entry, the
		// catalog must already describe the base file that absorbed it.
		if err := s.commitCatalog(*cat, st); err != nil {
			l.Close()
			return fmt.Errorf("delta recovery catalog: %w", err)
		}
		if err := l.Checkpoint(applied); err != nil {
			l.Close()
			return fmt.Errorf("delta recovery checkpoint: %w", err)
		}
		fmt.Fprintf(os.Stderr, "snakestore: recovered %d pending delta entr%s into %s\n",
			n, map[bool]string{true: "y", false: "ies"}[n == 1], active)
	}
	st.SetOverlay(l.Overlay())
	s.ing = &ingestState{
		log: l,
		opt: dopt,
		comp: ingest.NewCompactor(ingest.CompactorConfig{
			RegionCells:     regionCells,
			MaxBytesPerTick: maintainBudget,
			Commit:          s.commitFills,
		}),
		rate: workload.NewRateTracker(time.Minute),
	}
	s.registerIngestMetrics()
	return nil
}

// commitFills is the compactor's catalog hook: persist the new fill
// state atomically before the log checkpoint forgets the entries behind
// it. Serialized against generation swaps by swapMu. A tick whose folds were
// all same-length rewrites left every fill where the catalog on disk already
// has it, so there is nothing to write; the comparison is against the last
// catalog that reached the disk, so a failed commit is retried by the next
// tick.
func (s *server) commitFills(ctx context.Context, st *snakes.FileStore) error {
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	if st.FillEpoch() == s.catFill {
		return nil
	}
	sp := trace.StartLeaf(ctx, trace.KindCatalogCommit, "")
	err := s.commitCatalog(*s.cat, st)
	sp.SetError(err)
	sp.End()
	return err
}

// commitCatalog persists cat as the description of st and, once it is
// durable, makes it the daemon's catalog and remembers which of st's fills it
// recorded. The daemon keeps cat without its two per-cell arrays (cmdServe
// drops them once the store has validated them): the file gets them read back
// from the store. Like every catalog write it upgrades the version; the
// template says what the cells are. Callers hold swapMu (or run before
// serving starts).
func (s *server) commitCatalog(cat catalog, st *snakes.FileStore) error {
	fill := st.FillEpoch()
	cat.Version = catalogVersion
	full := cat
	full.BytesPer = make([]int64, st.Layout().Order().Len())
	for cell := range full.BytesPer {
		full.BytesPer[cell] = st.Layout().CellCapacity(cell)
	}
	full.LoadedBytes = st.LoadedBytes()
	if err := writeCatalog(s.catPath, &full); err != nil {
		return err
	}
	cat.BytesPer, cat.LoadedBytes = nil, nil
	*s.cat, s.catFill = cat, fill
	return nil
}

// registerIngestMetrics adds the write-path families that need the live
// log: backlog gauges, compaction progress, and the decayed write rate.
func (s *server) registerIngestMetrics() {
	ing := s.ing
	pending := func(f func(*ingest.Log) float64) func() float64 {
		return func() float64 {
			ing.mu.Lock()
			defer ing.mu.Unlock()
			return f(ing.log)
		}
	}
	s.metrics.reg.GaugeFunc("snakestore_delta_pending_bytes", "delta payload bytes awaiting compaction", pending(func(l *ingest.Log) float64 { return float64(l.PendingBytes()) }))
	s.metrics.reg.GaugeFunc("snakestore_delta_pending_cells", "cells with pending delta upserts", pending(func(l *ingest.Log) float64 { return float64(l.PendingCells()) }))
	s.metrics.reg.GaugeFunc("snakestore_compaction_lag_seconds", "age of the oldest delta entry not yet folded into the base file", pending(func(l *ingest.Log) float64 { return l.OldestPendingAge(time.Now()).Seconds() }))
	s.metrics.reg.GaugeFunc("snakestore_ingest_write_rate_bytes", "decayed accepted upsert bytes per second", func() float64 { return ing.rate.Rate(time.Now()) })
	comp := func(f func(ticks, cells, bytes int64) int64) func() int64 {
		return func() int64 { return f(ing.comp.Ticks()) }
	}
	s.metrics.reg.CounterFunc("snakestore_compaction_ticks_total", "background compaction ticks that applied at least one cell", comp(func(t, _, _ int64) int64 { return t }))
	s.metrics.reg.CounterFunc("snakestore_compaction_cells_total", "cells folded from the delta log into the base file", comp(func(_, c, _ int64) int64 { return c }))
	s.metrics.reg.CounterFunc("snakestore_compaction_bytes_total", "delta payload bytes folded into the base file", comp(func(_, _, b int64) int64 { return b }))
}

// fold runs one compaction tick and logs what it did; it returns the delta
// payload bytes folded, the maintainer's charge for it. Pending cells larger
// than their extents are logged when the set of them becomes non-empty
// (WARN) and when it empties again (INFO), not on every tick they stay.
func (s *server) fold(ctx context.Context) int64 {
	m := s.maint
	s.ing.mu.Lock()
	stats, err := s.ing.comp.Tick(ctx, s.st(), s.ing.log)
	s.ing.mu.Unlock()
	if err != nil {
		if ctx.Err() == nil {
			s.log.Warn("compact", "err", err)
		}
		return stats.BytesApplied
	}
	switch {
	case stats.Oversize > 0 && !m.oversize:
		s.log.Warn("compact", "how", "pending cells exceed their extents and stay in the delta log", "cells", stats.Oversize)
	case stats.Oversize == 0 && m.oversize:
		s.log.Info("compact", "how", "no pending cell exceeds its extent any more")
	}
	m.oversize = stats.Oversize > 0
	if stats.CellsApplied > 0 {
		s.log.Info("compact", "cells", stats.CellsApplied, "bytes", stats.BytesApplied,
			"regions", stats.Regions, "pendingCells", stats.PendingCells, "pendingBytes", stats.PendingBytes)
	}
	return stats.BytesApplied
}

// closeIngest flushes and closes the delta log on shutdown; acknowledged
// writes that were not yet compacted are recovered at the next startup.
func (s *server) closeIngest() {
	if s.ing == nil {
		return
	}
	s.ing.mu.Lock()
	defer s.ing.mu.Unlock()
	if err := s.ing.log.Close(); err != nil {
		s.log.Warn("ingest", "how", "closing delta log", "err", err)
	}
}

type ingestCellReq struct {
	Coords []int    `json:"coords"`
	Rows   []string `json:"rows"`
}

type ingestRequest struct {
	Cells []ingestCellReq `json:"cells"`
}

type ingestResponse struct {
	Accepted     int    `json:"accepted"`
	Bytes        int64  `json:"bytes"`
	PendingCells int    `json:"pendingCells"`
	PendingBytes int64  `json:"pendingBytes"`
	Generation   int64  `json:"generation"`
	TraceID      uint64 `json:"traceId,omitempty"` // set when this request was traced
}

// handleIngest accepts POST {"cells":[{"coords":[...],"rows":["..."]}]}:
// each entry replaces the named cell's records, durably per the
// -ingest-sync policy, visible to queries immediately via merge-on-read.
// The batch is validated in full before any cell is accepted, so a 400
// never leaves a partial batch behind. Cells are then appended in order: a
// put that fails (a full backlog sheds with 503) leaves the cells before it
// accepted, and the error body's accepted and bytes say how many.
// Like /query, the request runs under the per-request deadline with the
// log append in its own span, so slow ingests surface in /debug/traces
// and the slow-query log the same way slow reads do.
func (s *server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.ing == nil {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusNotFound)
		json.NewEncoder(w).Encode(map[string]string{"error": "ingest disabled; start with -ingest"})
		return
	}
	if r.Method != http.MethodPost {
		s.writeErr(w, usagef("ingest wants POST, got %s", r.Method))
		return
	}
	if s.draining.Load() {
		s.writeErr(w, fmt.Errorf("draining: %w", storage.ErrClosed))
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	var req ingestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.writeErr(w, usagef("decoding body: %v", err))
		return
	}
	if len(req.Cells) == 0 {
		s.writeErr(w, usagef("empty ingest batch"))
		return
	}
	st := s.st()
	order := st.Layout().Order()
	shape := order.Shape()
	type encodedCell struct {
		cell int
		enc  []byte
	}
	batch := make([]encodedCell, 0, len(req.Cells))
	for i, c := range req.Cells {
		if len(c.Coords) != len(shape) {
			s.writeErr(w, usagef("cell %d: %d coords for a %d-dimensional grid", i, len(c.Coords), len(shape)))
			return
		}
		for d, v := range c.Coords {
			if v < 0 || v >= shape[d] {
				s.writeErr(w, usagef("cell %d: coord %d out of range [0,%d)", i, v, shape[d]))
				return
			}
		}
		if len(c.Rows) == 0 {
			s.writeErr(w, usagef("cell %d: no rows", i))
			return
		}
		cell := order.CellIndex(c.Coords)
		enc := rowcodec.EncodeCell(s.dict, c.Rows)
		if cap := st.Layout().CellCapacity(cell); int64(len(enc)) > cap {
			s.writeErr(w, usagef("cell %d: %d bytes of rows exceed cell capacity %d", i, len(enc), cap))
			return
		}
		batch = append(batch, encodedCell{cell: cell, enc: enc})
	}
	resp := ingestResponse{Generation: s.generation.Load()}
	if tr := trace.FromContext(ctx); tr != nil {
		resp.TraceID = tr.ID()
	}
	// If the deadline already expired (e.g. a slow client body), shed
	// before taking the ingest lock.
	if err := ctx.Err(); err != nil {
		s.writeErr(w, err)
		return
	}
	asp := trace.StartLeaf(ctx, trace.KindDeltaAppend, "")
	asp.SetAttr("cells", int64(len(batch)))
	var err error
	s.ing.mu.Lock()
	for _, fc := range batch {
		if err = s.ing.log.Put(fc.cell, fc.enc); err != nil {
			if errors.Is(err, ingest.ErrLogPoisoned) && s.ing.poisoned != s.ing.log {
				s.ing.poisoned = s.ing.log
				s.log.Warn("ingest", "how", "delta log refuses writes until restart", "err", err)
			}
			break
		}
		resp.Accepted++
		resp.Bytes += int64(len(fc.enc))
	}
	resp.PendingCells = s.ing.log.PendingCells()
	resp.PendingBytes = s.ing.log.PendingBytes()
	s.ing.mu.Unlock()
	asp.SetAttr("bytes", resp.Bytes)
	asp.SetError(err)
	asp.End()
	if resp.Accepted > 0 {
		s.ing.rate.Observe(float64(resp.Bytes), time.Now())
		s.metrics.ingestPuts.Add(int64(resp.Accepted))
		s.metrics.ingestBytes.Add(resp.Bytes)
	}
	if ev := obsevent.FromContext(ctx); ev != nil {
		ev.Records = int64(resp.Accepted)
	}
	if err != nil {
		s.metrics.ingestRejected.Inc()
		if errors.Is(err, ingest.ErrBacklog) {
			err = fmt.Errorf("%w: %v", storage.ErrOverloaded, err)
		}
		s.writeErrBody(w, err, map[string]any{"error": err.Error(), "accepted": resp.Accepted, "bytes": resp.Bytes})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}
