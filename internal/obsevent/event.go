// Package obsevent is the daemon's wide-event telemetry kernel: one
// canonical record per served request, carrying everything the serving
// path knows about it — class, generation, predicted and observed cost,
// delta and plan-cache hits, admission wait, outcome, latency, trace id —
// published into a fixed-size lock-free ring. The ring is the single
// source for access logs and the /debug/events endpoint, and the event
// stream feeds the cost-model calibration watch (calibration.go) and the
// per-class SLO burn-rate engine (slo.go). Dependency-free by design,
// like internal/obs.
package obsevent

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"
)

// Event is one request's wide record. The serving middleware allocates
// it, handlers fill in what they learn (class, predictions, tallies), and
// the middleware seals it with status/outcome/latency and publishes it.
// After Publish an event is immutable: readers may hold it forever.
type Event struct {
	// Seq is the 1-based publication sequence number, assigned by
	// Ring.Publish. Gapless across concurrent publishers.
	Seq uint64 `json:"seq"`
	// TimeUnixNs is the request start time.
	TimeUnixNs int64 `json:"timeUnixNs"`

	Handler   string `json:"handler"`
	Method    string `json:"method"`
	Path      string `json:"path"`
	Status    int    `json:"status"`
	Outcome   string `json:"outcome"` // ok | client_error | shed | timeout | error
	LatencyNs int64  `json:"latencyNs"`
	RequestID uint64 `json:"requestId"`
	TraceID   uint64 `json:"traceId,omitempty"`
	Error     string `json:"error,omitempty"`

	// Query attribution; zero for handlers that serve no region.
	Class           string `json:"class,omitempty"`
	Generation      int64  `json:"generation,omitempty"`
	PredictedPages  int64  `json:"predictedPages,omitempty"`
	PredictedSeeks  int64  `json:"predictedSeeks,omitempty"`
	PagesRead       int64  `json:"pagesRead,omitempty"`
	SeeksObserved   int64  `json:"seeksObserved,omitempty"`
	DeltaHits       int64  `json:"deltaHits,omitempty"`
	PlanCacheHit    bool   `json:"planCacheHit,omitempty"`
	AdmissionWaitNs int64  `json:"admissionWaitNs,omitempty"`
	// Records is the handler's unit of work: records streamed for a
	// query, cells accepted for an ingest, pages repaired for a repair.
	Records int64 `json:"records,omitempty"`
}

// Outcome labels form the event stream's closed error taxonomy, mirrored
// from the daemon's HTTP status mapping.
const (
	OutcomeOK          = "ok"
	OutcomeClientError = "client_error"
	OutcomeShed        = "shed"
	OutcomeTimeout     = "timeout"
	OutcomeError       = "error"
)

// OutcomeOf maps an HTTP status onto the closed outcome set.
func OutcomeOf(status int) string {
	switch {
	case status < 400:
		return OutcomeOK
	case status < 500:
		return OutcomeClientError
	case status == 503:
		return OutcomeShed
	case status == 504:
		return OutcomeTimeout
	default:
		return OutcomeError
	}
}

// Ring is a fixed-size lock-free overwrite buffer of published events.
// Writers claim a sequence number from one atomic counter and store into
// slot (seq-1) % capacity; readers snapshot whatever the slots hold.
// Published events are immutable, so a snapshot racing writers yields
// old-or-new events, never a torn one. Memory is bounded by capacity:
// overwritten events become garbage as soon as no reader holds them.
type Ring struct {
	slots []atomic.Pointer[Event]
	seq   atomic.Uint64
}

// NewRing returns a ring retaining the last capacity published events
// (minimum 1).
func NewRing(capacity int) *Ring {
	if capacity < 1 {
		capacity = 1
	}
	return &Ring{slots: make([]atomic.Pointer[Event], capacity)}
}

// Publish seals e into the ring: assigns the next sequence number, stores
// it, and returns it. e must not be mutated afterwards.
func (r *Ring) Publish(e *Event) uint64 {
	seq := r.seq.Add(1)
	e.Seq = seq
	r.slots[(seq-1)%uint64(len(r.slots))].Store(e)
	return seq
}

// Published returns the total number of events ever published.
func (r *Ring) Published() uint64 { return r.seq.Load() }

// Capacity returns the ring's slot count.
func (r *Ring) Capacity() int { return len(r.slots) }

// ResidentBytes returns the heap the ring retains: its slots and the fixed
// part of every event they point at (class and handler strings are shared).
func (r *Ring) ResidentBytes() int64 {
	n := int64(len(r.slots)) * int64(unsafe.Sizeof(r.slots[0]))
	for i := range r.slots {
		if r.slots[i].Load() != nil {
			n += int64(unsafe.Sizeof(Event{}))
		}
	}
	return n
}

// Overwritten returns how many published events have been pushed out of
// the retention window.
func (r *Ring) Overwritten() uint64 {
	if n := r.seq.Load(); n > uint64(len(r.slots)) {
		return n - uint64(len(r.slots))
	}
	return 0
}

// Snapshot returns the currently retained events, newest first. Every
// event appears at most once (sequence numbers are unique), and the
// result length never exceeds capacity.
func (r *Ring) Snapshot() []*Event {
	out := make([]*Event, 0, len(r.slots))
	for i := range r.slots {
		if e := r.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seq > out[j].Seq })
	return out
}

// Filter selects events from a snapshot; zero values match everything.
type Filter struct {
	Handler    string        // exact handler name
	Class      string        // exact class label
	Outcome    string        // exact outcome label
	MinLatency time.Duration // keep events at least this slow
	SinceSeq   uint64        // keep events with Seq > SinceSeq
	Limit      int           // max events returned (0 = no limit)
}

// Match reports whether e passes every set field of the filter.
func (f Filter) Match(e *Event) bool {
	if f.Handler != "" && e.Handler != f.Handler {
		return false
	}
	if f.Class != "" && e.Class != f.Class {
		return false
	}
	if f.Outcome != "" && e.Outcome != f.Outcome {
		return false
	}
	if f.MinLatency > 0 && e.LatencyNs < f.MinLatency.Nanoseconds() {
		return false
	}
	if f.SinceSeq > 0 && e.Seq <= f.SinceSeq {
		return false
	}
	return true
}

// Query snapshots the ring and returns the matching events newest first,
// truncated to the filter's limit.
func (r *Ring) Query(f Filter) []*Event {
	snap := r.Snapshot()
	out := snap[:0]
	for _, e := range snap {
		if f.Match(e) {
			out = append(out, e)
			if f.Limit > 0 && len(out) >= f.Limit {
				break
			}
		}
	}
	return out
}

// eventKey is the context key WithEvent stores under.
type eventKey struct{}

// WithEvent attaches the request's wide event so handlers down the stack
// can fill in attribution fields before the middleware publishes it.
func WithEvent(ctx context.Context, e *Event) context.Context {
	return context.WithValue(ctx, eventKey{}, e)
}

// FromContext returns the request's in-flight event, or nil.
func FromContext(ctx context.Context) *Event {
	e, _ := ctx.Value(eventKey{}).(*Event)
	return e
}
