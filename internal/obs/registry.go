// Package obs is the simulator's observability subsystem: a lightweight
// metrics registry (counters, gauges, and fixed-bucket histograms with
// atomic values, safe to scrape from a concurrent HTTP handler while the
// single-goroutine cycle engine publishes), a structured event journal
// (TLP decisions, PBS phase transitions, window rollovers, the warmup
// boundary, grid progress), and three exporters: Prometheus text format
// (prom.go), Chrome trace-event JSON (chrometrace.go), and a per-window
// CSV (csv.go).
//
// The engine side is branch-on-nil: a nil Observer — or a nil Registry or
// Journal inside one — costs a pointer compare at each sampling window and
// nothing at all on the per-cycle path, so the cycle engine stays
// allocation-free and bit-identical with observability disabled (guarded
// by the golden and steady-state-allocation tests in internal/sim).
// Publishing happens at window granularity: the engine scrapes its
// lifetime counters, and their growth over the window, into the
// registry's atomic values, which the HTTP exporter reads from any
// goroutine without locks.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The engine publishes
// either by Add/Inc (event-driven counters) or by Set with the lifetime
// total of an engine counter (scrape-style mirroring); both keep the
// exported value monotone.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Set stores the counter's value directly; used to mirror an engine-side
// lifetime counter whose own monotonicity is already guaranteed.
func (c *Counter) Set(n uint64) {
	if c == nil {
		return
	}
	c.v.Store(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram. Buckets are upper
// bounds in increasing order; an implicit +Inf bucket is always present.
type Histogram struct {
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1, the last is +Inf
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// Label is one metric label pair. Labels are rendered in the order given
// at registration, so callers should use a consistent order per family.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

type series struct {
	labels string // pre-rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

type family struct {
	name, help, typ string
	series          []*series
	byKey           map[string]*series
}

// Registry holds named metric families. Registration takes a lock;
// reading and writing metric values is lock-free. Registering the same
// name+labels again returns the existing handle, so wiring code can be
// idempotent.
type Registry struct {
	mu       sync.Mutex
	families []*family
	byName   map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(l.Value)
		b.WriteString(v)
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// register finds or creates the family and series for name+labels; a new
// series gets its metric from mk while the lock is held, so a concurrent
// scrape never sees a half-built series. It panics on a type conflict
// (two registrations of one name with different metric types), which is
// a wiring bug, not a runtime condition.
func (r *Registry) register(name, help, typ string, labels []Label, mk func(*series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.byName[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		r.byName[name] = f
		r.families = append(r.families, f)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.typ, typ))
	}
	key := renderLabels(labels)
	if s := f.byKey[key]; s != nil {
		return s
	}
	s := &series{labels: key}
	mk(s)
	f.byKey[key] = s
	f.series = append(f.series, s)
	return s
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	return r.register(name, help, "counter", labels, func(s *series) { s.c = &Counter{} }).c
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	return r.register(name, help, "gauge", labels, func(s *series) { s.g = &Gauge{} }).g
}

// Histogram registers (or finds) a fixed-bucket histogram. The bucket
// bounds of the first registration win for the whole family.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.register(name, help, "histogram", labels, func(s *series) { s.h = newHistogram(bounds) }).h
}
