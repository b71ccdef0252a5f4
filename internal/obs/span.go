package obs

import (
	"context"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// A builds an Attr; the short name keeps instrumentation sites readable.
func A(key, value string) Attr { return Attr{Key: key, Value: value} }

// SpanData is one finished span as recorded by a Tracer. Start and End
// are wall-clock offsets from the tracer's epoch (monotonic, so
// durations are exact even across clock adjustments).
type SpanData struct {
	ID     uint64
	Parent uint64 // 0 for root spans
	Name   string
	Attrs  []Attr
	Start  time.Duration
	End    time.Duration
}

// Dur returns the span's wall-clock duration.
func (sd SpanData) Dur() time.Duration { return sd.End - sd.Start }

// DefaultSpanLimit bounds how many finished spans a tracer retains;
// beyond it new spans are counted as dropped. Orchestration-granularity
// tracing (one handful of spans per simulation) stays far below it.
const DefaultSpanLimit = 1 << 20

// Tracer collects wall-clock spans from the orchestration layers: sweep,
// grid cell, cache get/put, checkpoint fork, pooled execution, retry,
// watchdog trip. It records at orchestration granularity only — never
// from the per-cycle engine hot path — so its overhead contract is
// "unmeasurable on any real run" (the repository benchmark reports it as
// trace_overhead).
//
// All methods are safe for concurrent use and nil-safe: a nil *Tracer
// starts nil *Spans, and every Span method absorbs a nil receiver, so
// instrumented call sites need no "is tracing on?" branches.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []SpanData
	nextID  uint64
	limit   int
	dropped uint64
}

// NewTracer returns a tracer whose span clock starts now.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), limit: DefaultSpanLimit}
}

// SetLimit bounds the retained finished spans (<= 0 means unlimited).
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

func (t *Tracer) now() time.Duration { return time.Since(t.epoch) }

// Span is one in-flight (or finished) operation. Create with
// Tracer.Start or Span.Child, finish with End; a span that is never
// ended is simply not recorded.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	name   string
	start  time.Duration

	mu    sync.Mutex
	attrs []Attr
	ended bool
}

// Start opens a root span. A nil tracer returns a nil (no-op) span.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.start(0, name, attrs)
}

func (t *Tracer) start(parent uint64, name string, attrs []Attr) *Span {
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	return &Span{tr: t, id: id, parent: parent, name: name, start: t.now(), attrs: attrs}
}

// Instant records a zero-duration root span — a point event such as a
// watchdog trip.
func (t *Tracer) Instant(name string, attrs ...Attr) {
	if t == nil {
		return
	}
	t.instant(0, name, attrs)
}

// instant records a point event: one timestamp, Start == End, so the
// exporter renders it as an instant marker rather than a zero-width bar.
func (t *Tracer) instant(parent uint64, name string, attrs []Attr) {
	now := t.now()
	t.mu.Lock()
	t.nextID++
	id := t.nextID
	t.mu.Unlock()
	t.record(SpanData{ID: id, Parent: parent, Name: name, Attrs: attrs, Start: now, End: now})
}

// Child opens a span nested under s. A nil span returns a nil span, so
// chains off an untraced context cost nothing.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(s.id, name, attrs)
}

// Annotate appends an attribute to an in-flight span (e.g. the outcome,
// known only at the end).
func (s *Span) Annotate(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	}
	s.mu.Unlock()
}

// End finishes the span and records it on the tracer. Idempotent; safe
// on a nil span and from any goroutine.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	attrs := s.attrs
	s.mu.Unlock()
	s.tr.record(SpanData{
		ID: s.id, Parent: s.parent, Name: s.name, Attrs: attrs,
		Start: s.start, End: s.tr.now(),
	})
}

func (t *Tracer) record(sd SpanData) {
	t.mu.Lock()
	if t.limit > 0 && len(t.spans) >= t.limit {
		t.dropped++
	} else {
		t.spans = append(t.spans, sd)
	}
	t.mu.Unlock()
}

// Spans returns a copy of the finished spans in completion order.
func (t *Tracer) Spans() []SpanData {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanData(nil), t.spans...)
}

// Len returns the number of retained finished spans.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many finished spans the limit discarded.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

type tracerCtxKey struct{}
type spanCtxKey struct{}

// WithTracer attaches a tracer to the context; every orchestration layer
// below (grid build, cache, checkpoints, pool, retries) picks it up via
// StartSpan. Attaching nil is a no-op.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerCtxKey{}, t)
}

// TracerFrom returns the context's tracer, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(tracerCtxKey{}).(*Tracer)
	return t
}

// SpanFrom returns the context's current span, or nil.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// StartSpan opens a span as a child of the context's current span (or as
// a root on the context's tracer) and returns a context carrying it, so
// nesting follows the call tree with no signatures changed. Without a
// tracer it returns (ctx, nil) with no allocation — the universal no-op.
func StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	var sp *Span
	if parent := SpanFrom(ctx); parent != nil {
		sp = parent.Child(name, attrs...)
	} else if tr := TracerFrom(ctx); tr != nil {
		sp = tr.Start(name, attrs...)
	}
	if sp == nil {
		return ctx, nil
	}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// Instant records a zero-duration span under the context's current span
// (or as a root) — point events like a watchdog trip. No tracer, no-op.
func Instant(ctx context.Context, name string, attrs ...Attr) {
	if parent := SpanFrom(ctx); parent != nil {
		parent.tr.instant(parent.id, name, attrs)
		return
	}
	TracerFrom(ctx).Instant(name, attrs...)
}
