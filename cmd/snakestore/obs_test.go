package main

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obsevent"
	"repro/internal/trace"
)

// eventsResp is the /debug/events response shape.
type eventsResp struct {
	Published   uint64           `json:"published"`
	Overwritten uint64           `json:"overwritten"`
	Capacity    int              `json:"capacity"`
	Returned    int              `json:"returned"`
	Events      []obsevent.Event `json:"events"`
}

// healthzObs is the /healthz observability surface: the event-ring block,
// the calibration block (absent until a query has been observed), and the
// SLO block (absent unless -slo configured objectives).
type healthzObs struct {
	Status string `json:"status"`
	Events *struct {
		Published   uint64 `json:"published"`
		Overwritten uint64 `json:"overwritten"`
		Capacity    int    `json:"capacity"`
	} `json:"events"`
	Calibration *struct {
		Classes []obsevent.ClassCalibration `json:"classes"`
		Drifted []string                    `json:"drifted"`
	} `json:"calibration"`
	SLOState string `json:"sloState"`
	SLO      *struct {
		State   string                    `json:"state"`
		Classes []obsevent.SLOClassStatus `json:"classes"`
	} `json:"slo"`
}

// coldQuery empties the buffer pool and then runs the canonical region
// query, so the request pays every physical read the analytic model
// predicts — the reconciliation the calibration watch scores.
func coldQuery(t *testing.T, srv *server, ts *httptest.Server) queryResponse {
	t.Helper()
	if err := srv.st().Pool().Reset(context.Background()); err != nil {
		t.Fatalf("pool reset: %v", err)
	}
	var q queryResponse
	getJSON(t, ts, chaosRegion, http.StatusOK, &q)
	return q
}

// TestServeWideEventsAndCalibration: every request publishes one wide
// event into the ring behind /debug/events, field filters narrow the
// stream, and a run of cold overlay-free queries calibrates each touched
// class to page and seek ratios of exactly 1.0 — the cost model and the
// physical read path reconcile bit-for-bit, so the gauges are 1, not
// merely near 1.
func TestServeWideEventsAndCalibration(t *testing.T) {
	srv, want := buildServed(t, 64, time.Second, 5*time.Second)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	const n = 3
	for i := 0; i < n; i++ {
		q := coldQuery(t, srv, ts)
		if q.Sum == nil || math.Abs(*q.Sum-want) > 1e-9 {
			t.Fatalf("query %d sum = %v, want %v", i, q.Sum, want)
		}
		if q.PagesRead != q.Pages {
			t.Fatalf("cold query %d read %d pages, analytic model predicted %d", i, q.PagesRead, q.Pages)
		}
	}
	getJSON(t, ts, "/query?where=zz%3D0..1", http.StatusBadRequest, nil)
	getJSON(t, ts, "/healthz", http.StatusOK, nil)

	// Unfiltered: everything so far, newest-first. The /debug/events
	// request publishes its own event only after answering, so it does not
	// see itself.
	var er eventsResp
	getJSON(t, ts, "/debug/events", http.StatusOK, &er)
	if er.Capacity != defaultEventCapacity || er.Overwritten != 0 {
		t.Errorf("ring = capacity %d overwritten %d, want %d and 0", er.Capacity, er.Overwritten, defaultEventCapacity)
	}
	if er.Published != n+2 || er.Returned != n+2 {
		t.Errorf("published %d returned %d, want %d each", er.Published, er.Returned, n+2)
	}
	if len(er.Events) != n+2 || er.Events[0].Handler != "healthz" {
		t.Fatalf("unfiltered events not newest-first: %+v", er.Events)
	}
	for i := 1; i < len(er.Events); i++ {
		if er.Events[i].Seq >= er.Events[i-1].Seq {
			t.Errorf("events not ordered by descending seq: %d then %d", er.Events[i-1].Seq, er.Events[i].Seq)
		}
	}

	// The successful queries carry full cost attribution, and on a cold
	// overlay-free store observed cost equals predicted cost exactly.
	// (Fresh struct per decode: omitempty fields absent from a response
	// must read as zero, not as leftovers from the previous one.)
	er = eventsResp{}
	getJSON(t, ts, "/debug/events?handler=query&outcome=ok", http.StatusOK, &er)
	if er.Returned != n {
		t.Fatalf("handler=query outcome=ok returned %d events, want %d", er.Returned, n)
	}
	for _, ev := range er.Events {
		if ev.Class == "" || ev.Status != http.StatusOK || ev.Outcome != obsevent.OutcomeOK {
			t.Errorf("query event missing attribution: %+v", ev)
		}
		if ev.PredictedPages <= 0 || ev.PagesRead != ev.PredictedPages || ev.SeeksObserved != ev.PredictedSeeks {
			t.Errorf("cold query event does not reconcile: pred %d/%d obs %d/%d",
				ev.PredictedPages, ev.PredictedSeeks, ev.PagesRead, ev.SeeksObserved)
		}
		if ev.Records != 4 || ev.DeltaHits != 0 || ev.LatencyNs < 0 || ev.RequestID == 0 {
			t.Errorf("query event fields off: %+v", ev)
		}
	}
	class := er.Events[0].Class

	// The rejected query is a client_error with the parse failure recorded.
	er = eventsResp{}
	getJSON(t, ts, "/debug/events?outcome=client_error", http.StatusOK, &er)
	if er.Returned != 1 || er.Events[0].Handler != "query" || er.Events[0].Error == "" || er.Events[0].Class != "" {
		t.Errorf("client_error filter = %+v, want the one rejected query with its error", er.Events)
	}

	// limit caps, since_seq floors, and a bad filter is a 400.
	er = eventsResp{}
	getJSON(t, ts, "/debug/events?limit=2", http.StatusOK, &er)
	if er.Returned != 2 {
		t.Errorf("limit=2 returned %d", er.Returned)
	}
	er = eventsResp{}
	getJSON(t, ts, "/debug/events?since_seq=2&handler=query", http.StatusOK, &er)
	for _, ev := range er.Events {
		if ev.Seq <= 2 {
			t.Errorf("since_seq=2 returned seq %d", ev.Seq)
		}
	}
	getJSON(t, ts, "/debug/events?min_latency=bogus", http.StatusBadRequest, nil)

	// Calibration gauges: exactly 1.0, with the full observation weight
	// behind them and nothing flagged.
	samples, _ := scrape(t, ts.URL)
	for _, g := range []string{"page_ratio", "seek_ratio"} {
		key := fmt.Sprintf("snakestore_calibration_%s{class=%q}", g, class)
		if v, ok := samples[key]; !ok || v != 1 {
			t.Errorf("%s = %v (present=%v), want exactly 1", key, v, ok)
		}
	}
	if v := samples[fmt.Sprintf("snakestore_calibration_weight{class=%q}", class)]; v <= 1 {
		t.Errorf("calibration weight = %v, want > 1 after %d observations", v, n)
	}
	if v := samples[fmt.Sprintf("snakestore_calibration_drifted{class=%q}", class)]; v != 0 {
		t.Errorf("calibration drifted = %v on a reconciling store, want 0", v)
	}
	if v := samples["snakestore_calibration_seek_correction"]; v != 1 {
		t.Errorf("seek correction = %v, want exactly 1", v)
	}
	if samples["snakestore_event_published_total"] == 0 || samples["snakestore_event_ring_capacity"] != defaultEventCapacity {
		t.Errorf("event ring families off: published %v capacity %v",
			samples["snakestore_event_published_total"], samples["snakestore_event_ring_capacity"])
	}

	// /healthz carries the same calibration and event-ring view.
	var h healthzObs
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Events == nil || h.Events.Published == 0 || h.Events.Capacity != defaultEventCapacity {
		t.Errorf("healthz events block = %+v", h.Events)
	}
	if h.Calibration == nil || len(h.Calibration.Classes) != 1 || len(h.Calibration.Drifted) != 0 {
		t.Fatalf("healthz calibration block = %+v, want one clean class", h.Calibration)
	}
	if cc := h.Calibration.Classes[0]; cc.Class != class || cc.PageRatio != 1 || cc.SeekRatio != 1 || cc.Drifted {
		t.Errorf("healthz calibration = %+v, want ratios exactly 1", cc)
	}
	if h.SLO != nil || h.SLOState != "" {
		t.Errorf("healthz grew an SLO block without -slo: %+v", h.SLO)
	}
}

// fakeClock is an injectable server clock: reads return the stored instant
// advanced by step per call, so request latency is a deterministic
// function of the step and jumps in time are explicit.
type fakeClock struct {
	now  atomic.Int64 // unix nanos
	step atomic.Int64 // nanos added per read
}

func (f *fakeClock) Now() time.Time          { return time.Unix(0, f.now.Add(f.step.Load())) }
func (f *fakeClock) Advance(d time.Duration) { f.now.Add(int64(d)) }

// TestServeSLOBurnRateTransitions drives /healthz through the SLO state
// machine deterministically with an injected clock: ok while requests meet
// the objective, burning under an injected latency regression (both burn
// windows far past their thresholds), at-risk once the short window has
// recovered but the hour still holds the damage, and ok again after the
// budget window ages the regression out.
func TestServeSLOBurnRateTransitions(t *testing.T) {
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	fc := &fakeClock{}
	fc.now.Store(time.Date(2026, 8, 7, 12, 0, 30, 0, time.UTC).UnixNano())
	srv.clock = fc.Now
	cfg, err := obsevent.ParseSLOSpec("default=5ms@99.9")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.enableSLO(cfg); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	state := func() string {
		t.Helper()
		var h healthzObs
		getJSON(t, ts, "/healthz", http.StatusOK, &h)
		if h.SLO == nil || h.SLO.State != h.SLOState {
			t.Fatalf("healthz SLO block inconsistent: %+v vs %q", h.SLO, h.SLOState)
		}
		return h.SLOState
	}

	// Phase 1: the clock does not advance inside requests, so every query
	// meets the 5ms objective.
	getJSON(t, ts, chaosRegion, http.StatusOK, nil)
	if got := state(); got != obsevent.SLOStateOK {
		t.Fatalf("healthy phase state = %q, want %q", got, obsevent.SLOStateOK)
	}

	// Phase 2: a 10ms-per-clock-read regression makes every query blow the
	// objective; with a 99.9%% target the burn rate explodes past both the
	// fast (14.4) and slow (1) thresholds.
	const bad = 4
	fc.step.Store(int64(10 * time.Millisecond))
	for i := 0; i < bad; i++ {
		getJSON(t, ts, chaosRegion, http.StatusOK, nil)
	}
	fc.step.Store(0)
	if got := state(); got != obsevent.SLOStateBurning {
		t.Fatalf("regression phase state = %q, want %q", got, obsevent.SLOStateBurning)
	}

	samples, _ := scrape(t, ts.URL)
	var class string
	for _, cc := range srv.calib.Snapshot() {
		class = cc.Class
	}
	if class == "" {
		t.Fatal("no class observed")
	}
	// Exact burn expectation, computed with the engine's own float64 steps:
	// 4 bad of 5 in both windows against a 99.9 target.
	pct := 99.9
	target := pct / 100
	wantBurn := (float64(bad) / float64(bad+1)) / (1 - target)
	for _, w := range []string{"5m", "1h"} {
		key := fmt.Sprintf("snakestore_slo_burn_rate{class=%q,window=%q}", class, w)
		if v, ok := samples[key]; !ok || math.Abs(v-wantBurn) > 1e-6*wantBurn {
			t.Errorf("%s = %v (present=%v), want %v", key, v, ok, wantBurn)
		}
	}
	if v := samples[fmt.Sprintf("snakestore_slo_requests_total{class=%q,result=%q}", class, "bad")]; v != bad {
		t.Errorf("slo bad total = %v, want %d", v, bad)
	}
	if v := samples[fmt.Sprintf("snakestore_slo_requests_total{class=%q,result=%q}", class, "good")]; v != 1 {
		t.Errorf("slo good total = %v, want 1", v)
	}
	// The state gauge is one-hot on burning for the damaged class.
	hot := 0.0
	for _, st := range obsevent.SLOStates() {
		hot += samples[fmt.Sprintf("snakestore_slo_state{class=%q,state=%q}", class, st)]
	}
	if hot != 1 || samples[fmt.Sprintf("snakestore_slo_state{class=%q,state=%q}", class, obsevent.SLOStateBurning)] != 1 {
		t.Errorf("slo state gauges not one-hot burning: sum %v", hot)
	}

	// Phase 3: ten minutes on, the 5m window is clean but the hour window
	// still holds the burn — at risk, not burning.
	fc.Advance(10 * time.Minute)
	if got := state(); got != obsevent.SLOStateAtRisk {
		t.Fatalf("post-regression state = %q, want %q", got, obsevent.SLOStateAtRisk)
	}

	// Phase 4: past the long window the damage ages out entirely, and fresh
	// healthy traffic confirms ok.
	fc.Advance(2 * time.Hour)
	getJSON(t, ts, chaosRegion, http.StatusOK, nil)
	if got := state(); got != obsevent.SLOStateOK {
		t.Fatalf("recovered state = %q, want %q", got, obsevent.SLOStateOK)
	}
}

// waitForLogLine polls until some log line satisfies pred.
func waitForLogLine(t *testing.T, buf *syncBuf, what string, pred func(line string) bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, line := range strings.Split(buf.String(), "\n") {
			if pred(line) {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("log never contained %s; log:\n%s", what, buf.String())
}

// TestServeIngestRepairObservability closes the write-path coverage gap:
// POST /ingest and POST /repair get the same span treatment as /query —
// trace ids in their responses, delta-append and scrub spans in their
// retained traces, slow-query log lines when they cross the threshold —
// and both publish attributed wide events.
func TestServeIngestRepairObservability(t *testing.T) {
	srv, _, _, _ := buildIngestServed(t, testDeltaOptions(), testIngestConfig())
	srv.traces = trace.NewRecorder(trace.Config{SampleEvery: 1, SlowThreshold: time.Nanosecond})
	var buf syncBuf
	srv.log = slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	resp := ingestOne(t, ts, []int{1, 2}, "99.0")
	if resp.TraceID == 0 {
		t.Fatal("traced ingest response carries no traceId")
	}
	var detail trace.Detail
	getJSON(t, ts, "/debug/traces?id="+jsonUint(resp.TraceID), http.StatusOK, &detail)
	kinds := map[string]int{}
	for _, sp := range detail.Spans {
		kinds[sp.Kind]++
	}
	if kinds[trace.KindRequest] == 0 || kinds[trace.KindDeltaAppend] == 0 {
		t.Errorf("ingest trace spans = %v, want a request root with a delta_append child", kinds)
	}

	var rep struct {
		TraceID uint64 `json:"traceId"`
		Pages   int64  `json:"pages"`
		OK      bool   `json:"ok"`
	}
	postJSON(t, ts, "/repair", map[string]any{}, http.StatusOK, &rep)
	if rep.TraceID == 0 || !rep.OK || rep.Pages == 0 {
		t.Fatalf("repair response = %+v, want a traced clean sweep", rep)
	}
	getJSON(t, ts, "/debug/traces?id="+jsonUint(rep.TraceID), http.StatusOK, &detail)
	kinds = map[string]int{}
	for _, sp := range detail.Spans {
		kinds[sp.Kind]++
	}
	if kinds[trace.KindRequest] == 0 || kinds[trace.KindScrub] == 0 {
		t.Errorf("repair trace spans = %v, want a request root with scrub children", kinds)
	}

	// Both handlers cross the 1ns slow threshold and must emit the
	// slow-query line the /query path gets.
	for _, h := range []string{"handler=ingest", "handler=repair"} {
		h := h
		waitForLogLine(t, &buf, "slow-query with "+h, func(line string) bool {
			return strings.Contains(line, "slow-query") && strings.Contains(line, h)
		})
	}

	// And both published attributed wide events.
	var er eventsResp
	getJSON(t, ts, "/debug/events?handler=ingest", http.StatusOK, &er)
	if er.Returned != 1 || er.Events[0].TraceID != resp.TraceID || er.Events[0].Records != 1 {
		t.Errorf("ingest event = %+v, want trace %d with 1 accepted cell", er.Events, resp.TraceID)
	}
	er = eventsResp{}
	getJSON(t, ts, "/debug/events?handler=repair", http.StatusOK, &er)
	if er.Returned != 1 || er.Events[0].TraceID != rep.TraceID || er.Events[0].Records != rep.Pages {
		t.Errorf("repair event = %+v, want trace %d covering %d pages", er.Events, rep.TraceID, rep.Pages)
	}
}

// TestServeCalibrationDriftAndCompaction is the model-staleness loop end
// to end: a heavy uncompacted overlay absorbs the predicted physical cost
// (cells answer from the delta index, base pages never load), the class's
// calibration ratio collapses and the drift flag raises; one compaction
// tick plus fresh cold traffic decays the stale history out and the flag
// clears with the ratios back inside the threshold.
func TestServeCalibrationDriftAndCompaction(t *testing.T) {
	srv, _, _, _ := buildIngestServed(t, testDeltaOptions(), testIngestConfig())
	// Fast decay so the test converges in a handful of observations:
	// half-life one observation, default threshold, and a minimum weight
	// under the decayed mass's 1/(1-α)=2 asymptote so it is reachable.
	srv.calib = obsevent.NewCalibration(0.5, obsevent.DefaultCalibrationThreshold, 1.5)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	q := coldQuery(t, srv, ts)
	if q.PagesRead != q.Pages || q.DeltaCells != 0 {
		t.Fatalf("baseline not reconciling: %+v", q)
	}
	snap := srv.calib.Snapshot()
	if len(snap) != 1 || snap[0].PageRatio != 1 || snap[0].Drifted {
		t.Fatalf("baseline calibration = %+v, want one clean class", snap)
	}
	class := snap[0].Class

	// Overlay every cell of the canonical region: merge-on-read now
	// answers the whole query from the delta index.
	for y := 2; y <= 5; y++ {
		ingestOne(t, ts, []int{1, y}, "50.0")
	}
	for i := 0; i < 4; i++ {
		q := coldQuery(t, srv, ts)
		if q.DeltaCells != 4 {
			t.Fatalf("overlay query %d deltaCells = %d, want all 4 cells overlaid", i, q.DeltaCells)
		}
	}
	cc, ok := srv.calib.Class(class)
	if !ok || !cc.Drifted || cc.PageRatio >= 1-obsevent.DefaultCalibrationThreshold {
		t.Fatalf("overlay-heavy calibration = %+v, want the class flagged with a collapsed page ratio", cc)
	}
	var h healthzObs
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Calibration == nil || len(h.Calibration.Drifted) != 1 || h.Calibration.Drifted[0] != class {
		t.Fatalf("healthz drifted = %+v, want [%s]", h.Calibration, class)
	}

	// Compact, then let cold reconciled traffic wash the stale history out.
	if stats := tickIngest(t, srv); stats.PendingCells != 0 {
		t.Fatalf("compaction left %d pending cells", stats.PendingCells)
	}
	for i := 0; i < 8; i++ {
		q := coldQuery(t, srv, ts)
		if q.DeltaCells != 0 {
			t.Fatalf("post-compaction query still hits the overlay: %+v", q)
		}
		// Compaction leaves the store as the model describes it: a cold
		// read reconciles exactly again, pages and seeks.
		var er eventsResp
		getJSON(t, ts, "/debug/events?handler=query&limit=1", http.StatusOK, &er)
		if len(er.Events) != 1 || q.PagesRead != q.Pages ||
			er.Events[0].PagesRead != er.Events[0].PredictedPages || er.Events[0].SeeksObserved != er.Events[0].PredictedSeeks {
			t.Fatalf("post-compaction cold query does not reconcile: %+v, events %+v", q, er.Events)
		}
		if cc, _ = srv.calib.Class(class); !cc.Drifted {
			break
		}
	}
	if cc, _ = srv.calib.Class(class); cc.Drifted {
		t.Fatalf("drift flag never cleared after compaction: %+v", cc)
	}
	if math.Abs(cc.PageRatio-1) > obsevent.DefaultCalibrationThreshold || math.Abs(cc.SeekRatio-1) > obsevent.DefaultCalibrationThreshold {
		t.Errorf("restored ratios = %+v, want back within the drift threshold", cc)
	}
	getJSON(t, ts, "/healthz", http.StatusOK, &h)
	if h.Calibration == nil || len(h.Calibration.Drifted) != 0 {
		t.Errorf("healthz still reports drift after recovery: %+v", h.Calibration)
	}
}
