package trace

import (
	"context"
	"sort"
	"sync/atomic"
	"time"
	"unsafe"
)

// Config tunes a Recorder. The zero value records nothing (sampling off,
// no slow threshold); capacities and the span cap fall back to defaults.
type Config struct {
	// Capacity is the sampled ring's slot count.
	Capacity int
	// RetainedCapacity is the always-keep ring's slot count (slow,
	// errored, and forced traces).
	RetainedCapacity int
	// SampleEvery keeps every Nth request trace head-sampled; 0 disables
	// head sampling.
	SampleEvery int
	// SlowThreshold retains every request at least this slow regardless of
	// sampling — tail-based always-keep; 0 disables. While it is set,
	// every request carries a candidate trace so a slow request's spans
	// exist by the time its slowness is known.
	SlowThreshold time.Duration
	// MaxSpans caps spans per trace; further starts are counted as dropped.
	MaxSpans int
}

func (c Config) withDefaults() Config {
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.RetainedCapacity <= 0 {
		c.RetainedCapacity = 64
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	return c
}

// ring is a fixed-size lock-free overwrite buffer: writers claim slots
// from one atomic counter and readers snapshot whatever the slots hold.
// Sealed traces only — a stored trace is immutable, so a torn view of the
// ring yields old-or-new traces, never a torn trace.
type ring struct {
	slots []atomic.Pointer[Trace]
	next  atomic.Uint64
}

func newRing(n int) *ring { return &ring{slots: make([]atomic.Pointer[Trace], n)} }

func (r *ring) put(t *Trace) {
	idx := r.next.Add(1) - 1
	r.slots[idx%uint64(len(r.slots))].Store(t)
}

func (r *ring) collect(out []*Trace) []*Trace {
	for i := range r.slots {
		if t := r.slots[i].Load(); t != nil {
			out = append(out, t)
		}
	}
	return out
}

// ResidentBytes returns the heap the two rings retain: their slots, and each
// sealed trace's span and attribute arrays by capacity.
func (r *Recorder) ResidentBytes() int64 {
	var n int64
	for _, rg := range []*ring{r.sampled, r.retained} {
		n += int64(len(rg.slots)) * int64(unsafe.Sizeof(rg.slots[0]))
		for _, t := range rg.collect(nil) {
			n += int64(unsafe.Sizeof(*t)) + int64(cap(t.spans))*int64(unsafe.Sizeof(Span{}))
			for i := range t.spans {
				n += int64(cap(t.spans[i].Attrs)) * int64(unsafe.Sizeof(Attr{}))
			}
		}
	}
	return n
}

// Stats counts a Recorder's retention decisions.
type Stats struct {
	Started      uint64 `json:"started"`
	KeptSampled  uint64 `json:"keptSampled"`
	KeptSlow     uint64 `json:"keptSlow"`
	KeptError    uint64 `json:"keptError"`
	KeptForced   uint64 `json:"keptForced"`
	Discarded    uint64 `json:"discarded"`
	DroppedSpans uint64 `json:"droppedSpans"`
}

// Result is Finish's verdict on one trace.
type Result struct {
	Kept     bool
	Reason   string // sampled | slow | error | forced; empty when discarded
	Slow     bool
	Duration time.Duration
}

// Recorder assigns trace ids, decides which requests to record, and
// retains finished traces in two rings: head-sampled traces in a recent
// ring, and slow/errored/forced traces in an always-keep ring so they
// survive sampling pressure. All methods are safe for concurrent use and
// nil-safe, so a daemon without tracing configured passes a nil Recorder
// through unchanged.
type Recorder struct {
	cfg      Config
	ids      atomic.Uint64
	sampled  *ring
	retained *ring
	clock    func() time.Time // injectable for tests

	started, keptSampled, keptSlow, keptError, keptForced atomic.Uint64
	discarded, droppedSpans                               atomic.Uint64
}

// NewRecorder builds a recorder; see Config for the retention policy.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	return &Recorder{
		cfg:      cfg,
		sampled:  newRing(cfg.Capacity),
		retained: newRing(cfg.RetainedCapacity),
		clock:    time.Now,
	}
}

// Config returns the recorder's (defaulted) configuration.
func (r *Recorder) Config() Config {
	if r == nil {
		return Config{}
	}
	return r.cfg
}

// Enabled reports whether any request can ever be recorded.
func (r *Recorder) Enabled() bool {
	return r != nil && (r.cfg.SampleEvery > 0 || r.cfg.SlowThreshold > 0)
}

// Start begins a request trace named name (the root span's name) and
// returns a context carrying it. When the policy will provably keep
// nothing — sampling says no and there is no slow threshold — it returns
// ctx unchanged and a nil trace, so the request runs untraced and
// unallocated. The returned trace must be Finished (or Discarded).
func (r *Recorder) Start(ctx context.Context, name string) (context.Context, *Trace) {
	if r == nil {
		return ctx, nil
	}
	seq := r.ids.Add(1)
	sampled := r.cfg.SampleEvery > 0 && seq%uint64(r.cfg.SampleEvery) == 0
	if !sampled && r.cfg.SlowThreshold <= 0 {
		return ctx, nil
	}
	return r.begin(ctx, seq, name, sampled, false)
}

// StartForced begins a trace that is always recorded and retained (unless
// Discarded) regardless of sampling — for background reorganizations,
// which are too rare and too valuable to sample away.
func (r *Recorder) StartForced(ctx context.Context, name string) (context.Context, *Trace) {
	if r == nil {
		return ctx, nil
	}
	return r.begin(ctx, r.ids.Add(1), name, false, true)
}

func (r *Recorder) begin(ctx context.Context, id uint64, name string, sampled, forced bool) (context.Context, *Trace) {
	r.started.Add(1)
	t := &Trace{rec: r, id: id, name: name, clock: r.clock, start: r.clock(), sampled: sampled, forced: forced}
	t.startSpan(-1, KindRequest, name)
	return context.WithValue(ctx, ctxKey{}, ctxSpan{t, 0}), t
}

// Finish seals the trace: the root span (and any span left open) closes,
// err is recorded, and the retention policy files the trace into a ring
// or lets it go. Safe on a nil trace; calling twice returns the first
// verdict.
func (t *Trace) Finish(err error) Result {
	if t == nil {
		return Result{}
	}
	t.mu.Lock()
	if t.sealed {
		res := Result{Kept: t.reason != "", Reason: t.reason, Slow: t.slow, Duration: t.dur}
		t.mu.Unlock()
		return res
	}
	t.dur = t.clock().Sub(t.start)
	t.slow = t.rec.cfg.SlowThreshold > 0 && t.dur >= t.rec.cfg.SlowThreshold
	if err != nil {
		t.err = err.Error()
		t.spans[0].Err = t.err
	}
	end := t.dur.Nanoseconds()
	for i := range t.spans {
		if t.spans[i].Dur < 0 {
			t.spans[i].Dur = end - t.spans[i].Start
		}
	}
	t.sealed = true
	switch {
	case t.err != "":
		t.reason = "error"
	case t.slow:
		t.reason = "slow"
	case t.forced:
		t.reason = "forced"
	case t.sampled:
		t.reason = "sampled"
	}
	res := Result{Kept: t.reason != "", Reason: t.reason, Slow: t.slow, Duration: t.dur}
	dropped := t.dropped
	t.mu.Unlock()

	if dropped > 0 {
		t.rec.droppedSpans.Add(uint64(dropped))
	}
	switch res.Reason {
	case "error":
		t.rec.keptError.Add(1)
		t.rec.retained.put(t)
	case "slow":
		t.rec.keptSlow.Add(1)
		t.rec.retained.put(t)
	case "forced":
		t.rec.keptForced.Add(1)
		t.rec.retained.put(t)
	case "sampled":
		t.rec.keptSampled.Add(1)
		t.rec.sampled.put(t)
	default:
		t.rec.discarded.Add(1)
	}
	return res
}

// Discard seals the trace without retaining it — for candidate traces
// whose request turned out to be uninteresting (a background tick whose
// policy declined, for instance). Safe on a nil trace; a no-op after
// Finish.
func (t *Trace) Discard() {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.sealed {
		t.mu.Unlock()
		return
	}
	t.sealed = true
	t.dur = t.clock().Sub(t.start)
	t.mu.Unlock()
	t.rec.discarded.Add(1)
}

// Stats snapshots the retention counters.
func (r *Recorder) Stats() Stats {
	if r == nil {
		return Stats{}
	}
	return Stats{
		Started:      r.started.Load(),
		KeptSampled:  r.keptSampled.Load(),
		KeptSlow:     r.keptSlow.Load(),
		KeptError:    r.keptError.Load(),
		KeptForced:   r.keptForced.Load(),
		Discarded:    r.discarded.Load(),
		DroppedSpans: r.droppedSpans.Load(),
	}
}

// Snapshot returns every retained trace, newest first. Traces in the
// rings are sealed and immutable, so the result is safe to read while
// recording continues.
func (r *Recorder) Snapshot() []*Trace {
	if r == nil {
		return nil
	}
	out := make([]*Trace, 0, len(r.sampled.slots)+len(r.retained.slots))
	out = r.retained.collect(out)
	out = r.sampled.collect(out)
	sort.Slice(out, func(i, j int) bool { return out[i].id > out[j].id })
	return out
}

// Get returns the retained trace with the given id, or nil.
func (r *Recorder) Get(id uint64) *Trace {
	if r == nil {
		return nil
	}
	for _, ring := range []*ring{r.retained, r.sampled} {
		for i := range ring.slots {
			if t := ring.slots[i].Load(); t != nil && t.id == id {
				return t
			}
		}
	}
	return nil
}

// Summary is the one-line JSON rendering of a trace for /debug/traces.
type Summary struct {
	ID           uint64    `json:"id"`
	Name         string    `json:"name"`
	Start        time.Time `json:"start"`
	DurationMs   float64   `json:"durationMs"`
	SpanCount    int       `json:"spanCount"`
	DroppedSpans int       `json:"droppedSpans,omitempty"`
	Slow         bool      `json:"slow,omitempty"`
	Error        string    `json:"error,omitempty"`
	Kept         string    `json:"kept,omitempty"`
}

// Detail is the full JSON rendering: the summary plus every span.
type Detail struct {
	Summary
	Spans []Span `json:"spans"`
}

// Summarize renders the trace's summary line.
func (t *Trace) Summarize() Summary {
	if t == nil {
		return Summary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Summary{
		ID:           t.id,
		Name:         t.name,
		Start:        t.start,
		DurationMs:   float64(t.dur.Nanoseconds()) / 1e6,
		SpanCount:    len(t.spans),
		DroppedSpans: t.dropped,
		Slow:         t.slow,
		Error:        t.err,
		Kept:         t.reason,
	}
}

// DetailView renders the trace with its full span tree.
func (t *Trace) DetailView() Detail {
	return Detail{Summary: t.Summarize(), Spans: t.Spans()}
}
