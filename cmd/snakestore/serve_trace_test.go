package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/internal/trace"
)

// syncBuf is a concurrency-safe log sink: the middleware writes its access
// and slow-query lines after the handler has already streamed the response,
// so the test must not read the buffer bare.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitForLog polls for substr in the buffer; log lines land shortly after
// the response, never synchronously with it.
func waitForLog(t *testing.T, buf *syncBuf, substr string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if strings.Contains(buf.String(), substr) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("log never contained %q; log:\n%s", substr, buf.String())
}

// buildServedTrace is buildServed with a trace policy (and no fault
// injection).
func buildServedTrace(t *testing.T, tcfg trace.Config) *server {
	t.Helper()
	srv, _ := buildServed(t, 64, time.Second, 5*time.Second)
	srv.traces = trace.NewRecorder(tcfg)
	return srv
}

// tracesList is the /debug/traces listing shape.
type tracesList struct {
	Enabled bool            `json:"enabled"`
	Stats   trace.Stats     `json:"stats"`
	Traces  []trace.Summary `json:"traces"`
}

// TestServeTraceSmoke drives the whole slow-query forensics path against a
// fault-injected store: transient read faults plus a large retry backoff
// manufacture a genuinely slow request, which must come back with a
// traceId, be retained in /debug/traces as slow with retry_backoff spans
// in its tree, emit the slow-query log line, and move the slow-query and
// span-kind metrics.
func TestServeTraceSmoke(t *testing.T) {
	dir := t.TempDir()
	cat := filepath.Join(dir, "cat.json")
	storePath := filepath.Join(dir, "facts.db")
	csvPath := filepath.Join(dir, "facts.csv")
	writeFactsCSV(t, csvPath)
	if err := cmdOptimize([]string{"-dims", "x:2,2 y:3,2", "-page", "64", "-catalog", cat}); err != nil {
		t.Fatal(err)
	}
	if err := cmdBuild([]string{"-catalog", cat, "-csv", csvPath, "-store", storePath, "-frames", "8"}); err != nil {
		t.Fatal(err)
	}
	c, schema, strat, err := loadCatalog(cat)
	if err != nil {
		t.Fatal(err)
	}
	o, err := strat.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// Stack the store over a fault injector: the first read fails
	// transiently four times, and a deliberately fat backoff turns those
	// retries into latency the trace must account for.
	pf, err := storage.OpenPageFile(storePath, c.PageBytes)
	if err != nil {
		t.Fatal(err)
	}
	fi := storage.NewFaultInjector(pf, 1, storage.Fault{Op: storage.OpRead, Index: 0, Kind: storage.FaultTransient, Repeat: 4})
	store, err := storage.NewFileStoreOn(fi, o, c.BytesPer, 8, c.LoadedBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	store.Pool().SetRetry(storage.RetryPolicy{MaxRetries: 6, Backoff: 2 * time.Millisecond})
	adm, err := storage.NewAdmission(64, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(store, schema, c, adm, 5*time.Second, trace.Config{SampleEvery: 1, SlowThreshold: 5 * time.Millisecond})
	var buf syncBuf
	srv.log = slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	var q queryResponse
	getJSON(t, ts, "/query", http.StatusOK, &q)
	if q.TraceID == 0 {
		t.Fatal("traced query response carries no traceId")
	}

	var list tracesList
	getJSON(t, ts, "/debug/traces", http.StatusOK, &list)
	if !list.Enabled {
		t.Error("/debug/traces reports tracing disabled")
	}
	var sum *trace.Summary
	for i := range list.Traces {
		if list.Traces[i].ID == q.TraceID {
			sum = &list.Traces[i]
		}
	}
	if sum == nil {
		t.Fatalf("trace %d missing from /debug/traces: %+v", q.TraceID, list.Traces)
	}
	if !sum.Slow || sum.Kept != "slow" {
		t.Errorf("fault-delayed query summary = %+v, want kept as slow", *sum)
	}
	if list.Stats.KeptSlow == 0 {
		t.Errorf("recorder stats = %+v, want a kept-slow trace", list.Stats)
	}

	var detail trace.Detail
	getJSON(t, ts, "/debug/traces?id="+jsonUint(q.TraceID), http.StatusOK, &detail)
	kinds := map[string]int{}
	for _, sp := range detail.Spans {
		kinds[sp.Kind]++
	}
	for _, k := range []string{trace.KindRequest, trace.KindAdmission, trace.KindFragment, trace.KindPageLoad} {
		if kinds[k] == 0 {
			t.Errorf("trace detail has no %s span: %v", k, kinds)
		}
	}
	if kinds[trace.KindRetry] != 4 {
		t.Errorf("trace detail has %d retry_backoff spans, want 4 (one per injected fault)", kinds[trace.KindRetry])
	}

	// Unknown and malformed ids answer 404 and 400, not 200-with-nothing.
	getJSON(t, ts, "/debug/traces?id=999999999", http.StatusNotFound, nil)
	getJSON(t, ts, "/debug/traces?id=bogus", http.StatusBadRequest, nil)

	waitForLog(t, &buf, "slow-query")
	waitForLog(t, &buf, "retry_backoff")

	ren := string(srv.metrics.reg.Render())
	for _, want := range []string{
		"snakestore_slow_query_total 1",
		`snakestore_trace_span_seconds_count{kind="retry_backoff"} 4`,
		"snakestore_build_info{",
	} {
		if !strings.Contains(ren, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// jsonUint formats a trace id for a query string.
func jsonUint(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}

// TestServeSlowAlwaysRetained: with head sampling effectively off, a
// slower-than-threshold request must still be retained — tail-based keep
// is not subject to the sampling rate — and its traceId must appear in
// both the response and the access log.
func TestServeSlowAlwaysRetained(t *testing.T) {
	srv := buildServedTrace(t, trace.Config{SampleEvery: 1 << 30, SlowThreshold: time.Nanosecond})
	var buf syncBuf
	srv.log = slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		var q queryResponse
		getJSON(t, ts, "/query", http.StatusOK, &q)
		if q.TraceID == 0 {
			t.Fatal("slow-threshold tracing returned no traceId")
		}
		var detail trace.Detail
		getJSON(t, ts, "/debug/traces?id="+jsonUint(q.TraceID), http.StatusOK, &detail)
		if detail.Kept != "slow" || !detail.Slow {
			t.Errorf("request %d: trace %d = %+v, want retained as slow despite 1-in-2^30 sampling", i, q.TraceID, detail.Summary)
		}
		waitForLog(t, &buf, "trace="+jsonUint(q.TraceID))
	}
}

// TestServePanicRecovery: a panicking handler is answered with a typed 500
// JSON error, counted in snakestore_http_panics_total, logged with its
// stack, and the daemon keeps serving.
func TestServePanicRecovery(t *testing.T) {
	srv, want := buildServed(t, 64, time.Second, 5*time.Second)
	var buf syncBuf
	srv.log = slog.New(slog.NewTextHandler(&buf, nil))
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	boom := srv.instrument("query", true, func(http.ResponseWriter, *http.Request) {
		panic("boom")
	})
	rec := httptest.NewRecorder()
	boom(rec, httptest.NewRequest(http.MethodGet, "/query", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", rec.Code)
	}
	var e struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Errorf("panic response body %q, want typed JSON error", rec.Body.String())
	}
	waitForLog(t, &buf, "stack=")
	if ren := string(srv.metrics.reg.Render()); !strings.Contains(ren, "snakestore_http_panics_total 1") {
		t.Errorf("panic not counted; metrics:\n%s", ren)
	}

	// The daemon is still healthy: a real query still answers.
	var q queryResponse
	getJSON(t, ts, "/query?where=x%3D1..2&where=y%3D2..6&sum=0", http.StatusOK, &q)
	if q.Sum == nil || *q.Sum != want {
		t.Errorf("query after panic = %+v, want sum %v", q, want)
	}
}
