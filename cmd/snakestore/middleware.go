package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime/debug"
	"strings"
	"time"

	snakes "repro"
	"repro/internal/ingest"
	"repro/internal/obsevent"
	"repro/internal/storage"
	"repro/internal/trace"
)

// statusWriter captures the response code for metrics and logs, and
// carries the request's in-flight wide event so writeErr can record the
// error string without changing its signature.
type statusWriter struct {
	http.ResponseWriter
	code int
	ev   *obsevent.Event
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// reqIDKey carries the request id so handlers can tag their own log lines.
type reqIDKey struct{}

func reqIDFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(reqIDKey{}).(uint64)
	return id
}

// instrument wraps an endpoint with the shared telemetry: request counter,
// in-flight gauge, latency histogram, per-status response counters, and one
// canonical wide Event per request — built here, filled by the handler via
// the request context (class, predicted/observed cost, delta and plan-cache
// hits, admission wait), published into the ring behind /debug/events, and
// rendered as the single access-log line. Query events additionally feed
// the cost-model calibration watch and, when -slo is configured, the
// per-class burn-rate engine. A handler panic is recovered here — logged
// with its stack under the request id, answered with a typed 500 if nothing
// was written yet, and counted — so one bad request can never take the
// daemon down.
//
// Endpoints marked traced additionally run under a trace from the server's
// recorder: the root span covers the whole request, handlers hang child
// spans off the request context, and the recorder's policy decides at
// finish whether the trace is retained for /debug/traces. A kept-slow
// trace also emits a slow-query log line with its per-kind span breakdown.
func (s *server) instrument(name string, traced bool, fn http.HandlerFunc) http.HandlerFunc {
	hm := s.metrics.handlers[name]
	return func(w http.ResponseWriter, r *http.Request) {
		id := s.reqID.Add(1)
		hm.requests.Inc()
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)
		start := s.clock()
		ev := &obsevent.Event{
			TimeUnixNs: start.UnixNano(),
			Handler:    name,
			Method:     r.Method,
			Path:       r.URL.Path,
			RequestID:  id,
		}
		sw := &statusWriter{ResponseWriter: w, ev: ev}
		ctx := context.WithValue(r.Context(), reqIDKey{}, id)
		ctx = obsevent.WithEvent(ctx, ev)
		var tr *trace.Trace
		if traced {
			ctx, tr = s.traces.Start(ctx, name)
			if tr != nil {
				ev.TraceID = tr.ID()
			}
		}
		panicErr := s.callHandler(sw, r.WithContext(ctx), fn, id)
		elapsed := s.clock().Sub(start)
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		hm.response(code)
		hm.latency.Observe(elapsed.Seconds())
		ev.Status = code
		ev.Outcome = obsevent.OutcomeOf(code)
		ev.LatencyNs = elapsed.Nanoseconds()
		if panicErr != nil && ev.Error == "" {
			ev.Error = panicErr.Error()
		}
		// Attribution closes here: a reconciled 200 query teaches the
		// calibration watch, and every class-attributed request with a
		// definite server-side outcome (2xx/5xx; client errors are the
		// caller's fault) feeds its SLO series.
		if ev.Class != "" && code == http.StatusOK {
			s.calib.Observe(ev.Class, ev.PredictedPages, ev.PagesRead, ev.PredictedSeeks, ev.SeeksObserved)
		}
		if s.slo != nil && ev.Class != "" && (code < 400 || code >= 500) {
			s.slo.Observe(ev.Class, elapsed, code >= 500)
		}
		// Publish after every field is final: ring events are immutable.
		s.events.Publish(ev)
		s.logEvent(ev)
		if tr != nil {
			finishErr := panicErr
			if finishErr == nil && code >= 500 {
				finishErr = fmt.Errorf("http %d", code)
			}
			res := tr.Finish(finishErr)
			s.metrics.observeTrace(tr, res)
			if res.Kept && res.Slow {
				s.log.Warn("slow-query",
					"req", id, "trace", tr.ID(), "handler", name, "url", r.URL.String(),
					"dur", res.Duration.Round(time.Microsecond), "spans", spanBreakdown(tr.Spans()))
			}
		}
	}
}

// logEvent renders one published wide event as the access-log line — the
// event is the single source, so the log carries exactly what
// /debug/events retains. Attribution fields appear only when set, keeping
// healthz/metrics probes to one short line.
func (s *server) logEvent(ev *obsevent.Event) {
	args := []any{
		"req", ev.RequestID, "handler", ev.Handler, "method", ev.Method, "path", ev.Path,
		"status", ev.Status, "outcome", ev.Outcome,
		"dur", (time.Duration(ev.LatencyNs) * time.Nanosecond).Round(time.Microsecond),
	}
	if ev.TraceID != 0 {
		args = append(args, "trace", ev.TraceID)
	}
	if ev.Class != "" {
		args = append(args,
			"class", ev.Class, "gen", ev.Generation,
			"pagesAnalytic", ev.PredictedPages, "pagesRead", ev.PagesRead,
			"seeksAnalytic", ev.PredictedSeeks, "seeksObserved", ev.SeeksObserved,
			"deltaHits", ev.DeltaHits, "planCacheHit", ev.PlanCacheHit,
			"admissionWait", (time.Duration(ev.AdmissionWaitNs) * time.Nanosecond).Round(time.Microsecond))
	}
	if ev.Records != 0 {
		args = append(args, "records", ev.Records)
	}
	if ev.Error != "" {
		args = append(args, "err", ev.Error)
	}
	s.log.Info("request", args...)
}

// callHandler runs the handler under the panic guard, returning the panic
// (as an error) when one was recovered.
func (s *server) callHandler(w *statusWriter, r *http.Request, fn http.HandlerFunc, id uint64) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
			s.metrics.httpPanics.Inc()
			s.log.Error("panic", "req", id, "err", p, "stack", string(debug.Stack()))
			if w.code == 0 {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusInternalServerError)
				json.NewEncoder(w).Encode(map[string]string{"error": "internal server error"})
			}
		}
	}()
	fn(w, r)
	return nil
}

// spanBreakdown renders a finished trace's non-root spans as
// "kind×count=totalms" pairs for the slow-query log line.
func spanBreakdown(spans []trace.Span) string {
	type agg struct {
		n  int
		ns int64
	}
	byKind := make(map[string]*agg)
	var order []string
	for _, sp := range spans {
		if sp.Kind == trace.KindRequest || sp.Dur < 0 {
			continue
		}
		a := byKind[sp.Kind]
		if a == nil {
			a = &agg{}
			byKind[sp.Kind] = a
			order = append(order, sp.Kind)
		}
		a.n++
		a.ns += sp.Dur
	}
	parts := make([]string, 0, len(order))
	for _, k := range order {
		parts = append(parts, fmt.Sprintf("%s×%d=%.2fms", k, byKind[k].n, float64(byKind[k].ns)/1e6))
	}
	return strings.Join(parts, " ")
}

// writeErr maps the serving error taxonomy onto HTTP statuses: bad input
// 400, a reorganization already running 409, shed, closed or a delta log
// that refuses writes 503, timed out 504, corruption 500 (after
// quarantining the page).
func (s *server) writeErr(w http.ResponseWriter, err error) {
	s.writeErrBody(w, err, map[string]string{"error": err.Error()})
}

// writeErrBody is writeErr with a JSON body of the caller's, which carries
// err's text under "error".
func (s *server) writeErrBody(w http.ResponseWriter, err error, body any) {
	if sw, ok := w.(*statusWriter); ok && sw.ev != nil {
		sw.ev.Error = err.Error()
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, errUsage):
		status = http.StatusBadRequest
	case errors.Is(err, snakes.ErrReorgInProgress):
		status = http.StatusConflict
	case errors.Is(err, storage.ErrOverloaded), errors.Is(err, storage.ErrClosed), errors.Is(err, ingest.ErrLogPoisoned):
		status = http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status = http.StatusGatewayTimeout
	case errors.Is(err, storage.ErrCorruptPage):
		s.noteCorrupt(err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}
