package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	snakes "repro"
	"repro/internal/obsevent"
	"repro/internal/rowcodec"
	"repro/internal/storage"
	"repro/internal/trace"
)

// handleEvents serves GET /debug/events: the ring's retained wide events
// newest-first, optionally narrowed by handler, class, outcome, a minimum
// latency, a sequence floor, and a result cap. The ring is a window, not
// an archive — overwritten counts what scrolled off.
func (s *server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := obsevent.Filter{
		Handler: q.Get("handler"),
		Class:   q.Get("class"),
		Outcome: q.Get("outcome"),
	}
	if v := q.Get("min_latency"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil || d < 0 {
			s.writeErr(w, usagef("min_latency=%q: want a non-negative duration", v))
			return
		}
		f.MinLatency = d
	}
	if v := q.Get("since_seq"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			s.writeErr(w, usagef("since_seq=%q: want a sequence number", v))
			return
		}
		f.SinceSeq = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			s.writeErr(w, usagef("limit=%q: want a non-negative count", v))
			return
		}
		f.Limit = n
	}
	events := s.events.Query(f)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"published":   s.events.Published(),
		"overwritten": s.events.Overwritten(),
		"capacity":    s.events.Capacity(),
		"returned":    len(events),
		"events":      events,
	})
}

type queryResponse struct {
	Region     string   `json:"region"`
	Records    int64    `json:"records"`
	Sum        *float64 `json:"sum,omitempty"`
	Pages      int64    `json:"analyticPages"`
	PagesRead  int64    `json:"pagesRead"`
	Seeks      int64    `json:"observedSeeks"`
	DeltaCells int64    `json:"deltaCells,omitempty"` // cells served from the delta store
	Generation int64    `json:"generation"`
	TraceID    uint64   `json:"traceId,omitempty"` // set when this request was traced
}

// handleQuery answers GET /query?where=dim=lo..hi&...&sum=N. Unrestricted
// dimensions select their full range, like the query subcommand. The
// response reports both sides of the paper's cost model: the analytic page
// prediction and the physical reads/seeks this request actually caused,
// measured by a request-local pool tally — plus the store generation that
// served it, so clients can watch reorganizations land.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	q := r.URL.Query()
	if err := queryParams(q); err != nil {
		s.writeErr(w, err)
		return
	}
	region, err := parseRegion(s.schema, s.dims, q["where"])
	if err != nil {
		s.writeErr(w, usagef("%v", err))
		return
	}
	sumCol := -1
	if v, ok := q["sum"]; ok {
		if sumCol, err = strconv.Atoi(v[0]); err != nil || sumCol < 0 {
			s.writeErr(w, usagef("sum=%q: want a non-negative column index", v[0]))
			return
		}
	}
	ev := obsevent.FromContext(ctx)
	// Every valid query is demand evidence, observed before admission so
	// shed load still teaches the reorganizer what clients wanted.
	if class, cerr := s.schema.ClassOfRegion(region); cerr == nil {
		s.metrics.observeClass(class)
		if ev != nil {
			ev.Class = classLabel(class)
		}
		if s.reorg != nil {
			if oerr := s.reorg.Observe(class); oerr != nil {
				s.log.Warn("reorg", "how", "observing query class", "err", oerr)
			}
		}
	}
	// Snapshot the serving store once and plan the region once: the plan's
	// analytic cost is the admission weight and the event's prediction, and
	// the same plan is what the reader executes — all against one generation
	// even if a reorganization swaps the pointer mid-request.
	st := s.st()
	gen := s.generation.Load()
	var tally storage.PoolTally
	ctx = storage.WithPoolTally(ctx, &tally)
	plan, err := st.Plan(ctx, region)
	if err != nil {
		s.writeErr(w, err)
		return
	}
	if ev != nil {
		ev.Generation = gen
		ev.PredictedPages = plan.Pages
		ev.PredictedSeeks = plan.Seeks
		ev.PlanCacheHit = tally.PlanHits() > 0
	}
	// Admission weight is the query's analytic page count, so one huge scan
	// and many point queries draw from the same budget.
	asp := trace.StartLeaf(ctx, trace.KindAdmission, "")
	asp.SetAttr("weight_pages", plan.Pages)
	admStart := s.clock()
	if err := s.adm.Acquire(ctx, plan.Pages); err != nil {
		asp.SetError(err)
		asp.End()
		s.writeErr(w, err)
		return
	}
	if ev != nil {
		ev.AdmissionWaitNs = s.clock().Sub(admStart).Nanoseconds()
	}
	asp.End()
	defer s.adm.Release(plan.Pages)

	resp := queryResponse{Region: region.String(), Pages: plan.Pages, Generation: gen}
	if tr := trace.FromContext(ctx); tr != nil {
		resp.TraceID = tr.ID()
	}
	var total float64
	if resp.Records, total, err = readSum(ctx, st, plan, s.dict, sumCol); err != nil {
		s.writeErr(w, err)
		return
	}
	if sumCol >= 0 {
		resp.Sum = &total
	}
	resp.PagesRead = tally.Stats().Misses
	resp.Seeks = tally.Seeks()
	resp.DeltaCells = tally.DeltaHits()
	if ev != nil {
		ev.PagesRead = resp.PagesRead
		ev.SeeksObserved = resp.Seeks
		ev.DeltaHits = resp.DeltaCells
		ev.Records = resp.Records
	}
	s.metrics.queryRecords.Add(resp.Records)
	s.metrics.queryDeltaCells.Add(resp.DeltaCells)
	s.metrics.pagesAnalytic.Observe(float64(plan.Pages))
	s.metrics.pagesRead.Observe(float64(resp.PagesRead))
	s.metrics.seeksAnalytic.Observe(float64(plan.Seeks))
	s.metrics.seeksObserved.Observe(float64(resp.Seeks))
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// queryParams refuses the parameters /query does not read — anything but
// where and one sum — by name, so a misspelt restriction is an error and not
// a scan of the whole store. The first name in byte order is the one named.
func queryParams(q url.Values) error {
	bad, found := "", false
	for k, v := range q {
		if k != "where" && (k != "sum" || len(v) > 1) && (!found || k < bad) {
			bad, found = k, true
		}
	}
	switch {
	case !found:
		return nil
	case bad == "sum":
		return usagef("sum given %d times: want one column", len(q["sum"]))
	}
	return usagef("unknown parameter %q: /query takes where and sum", bad)
}

// readSum executes plan through the one record kernel /query and the query
// subcommand share: the region's record count and, for col >= 0, the exact
// sum of payload column col (rowcodec.Sum) of rows encoded under d. A column
// that does not read as a number, or a sum that is not a finite number, is a
// usage error.
func readSum(ctx context.Context, st *snakes.FileStore, plan *storage.QueryPlan, d *rowcodec.Dict, col int) (records int64, sum float64, err error) {
	k := &sumKernel{col: col, d: d, sum: rowcodec.NewSum(d, col)}
	if err := st.ReadPlanCellsCtx(ctx, plan, k.cell); err != nil {
		return 0, 0, err
	}
	if col >= 0 {
		if sum, err = k.sum.Total(); err != nil {
			return 0, 0, usagef("%v", err)
		}
	}
	return k.records, sum, nil
}

// sumKernel counts each cell's rows and adds their column to the sum: a
// packed cell in one strided call, a framed one a record at a time, with no
// allocation.
type sumKernel struct {
	records int64
	col     int // -1: count only
	d       *rowcodec.Dict
	sum     rowcodec.Sum
}

func (k *sumKernel) cell(cell int, b []byte) error {
	var rows int
	var err error
	if k.col >= 0 {
		rows, err = k.sum.AddCell(b)
	} else {
		rows, err = rowcodec.CellRows(k.d, b)
	}
	switch {
	case err == nil:
		k.records += int64(rows)
		return nil
	case errors.Is(err, rowcodec.ErrFraming):
		return fmt.Errorf("cell %d: %w", cell, err)
	default:
		return usagef("%v", err)
	}
}

// handleTraces serves /debug/traces: without parameters, the retained
// traces newest-first as summary lines plus the recorder's retention
// stats; with ?id=N, the full span tree of one retained trace. A trace
// that was never retained (or has been overwritten in its ring) answers
// 404 — retention is a window, not an archive.
func (s *server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if idStr := r.URL.Query().Get("id"); idStr != "" {
		id, err := strconv.ParseUint(idStr, 10, 64)
		if err != nil {
			s.writeErr(w, usagef("id=%q: want a trace id", idStr))
			return
		}
		tr := s.traces.Get(id)
		if tr == nil {
			w.WriteHeader(http.StatusNotFound)
			json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf("trace %d is not retained", id)})
			return
		}
		json.NewEncoder(w).Encode(tr.DetailView())
		return
	}
	snap := s.traces.Snapshot()
	sums := make([]trace.Summary, 0, len(snap))
	for _, tr := range snap {
		sums = append(sums, tr.Summarize())
	}
	json.NewEncoder(w).Encode(map[string]any{
		"enabled": s.traces.Enabled(),
		"config": map[string]any{
			"sampleEvery":     s.traces.Config().SampleEvery,
			"slowThresholdMs": float64(s.traces.Config().SlowThreshold.Nanoseconds()) / 1e6,
		},
		"stats":  s.traces.Stats(),
		"traces": sums,
	})
}
