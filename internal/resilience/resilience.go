// Package resilience is the failure-handling layer of the execution
// stack (DESIGN.md §10): a Monitor that mirrors resilience incidents
// into the obs registry and journal, a bounded retry policy with
// deterministic jittered exponential backoff for transient cache I/O,
// and a per-run Watchdog that declares a simulation stuck when its cycle
// counter stops advancing past a progress deadline.
//
// Everything here is nil-safe: a nil Monitor discards incidents, a nil
// Watchdog absorbs pulses, and the zero Policy retries with defaults, so
// call sites carry no "is resilience on?" branches.
package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"
	"time"

	"ebm/internal/obs"
)

// Monitor publishes resilience incidents: counters in an obs registry
// (runs_cancelled, cache_retries, watchdog_trips) and EvResilience
// events in a journal. Either sink may be absent; a nil Monitor is a
// no-op.
type Monitor struct {
	RunsCancelled *obs.Counter
	CacheRetries  *obs.Counter
	WatchdogTrips *obs.Counter
	Journal       *obs.Journal
}

// NewMonitor registers the resilience counters in reg (nil skips
// registration; the obs handles are nil-safe) and journals incidents to
// j (nil discards them).
func NewMonitor(reg *obs.Registry, j *obs.Journal) *Monitor {
	m := &Monitor{Journal: j}
	if reg != nil {
		m.RunsCancelled = reg.Counter("ebm_runs_cancelled_total", "simulation runs aborted by cancellation")
		m.CacheRetries = reg.Counter("ebm_cache_retries_total", "transient cache I/O failures retried")
		m.WatchdogTrips = reg.Counter("ebm_watchdog_trips_total", "runs declared stuck by the progress watchdog")
	}
	return m
}

func (m *Monitor) journal(label string) {
	if m != nil {
		m.Journal.Record(obs.Event{Kind: obs.EvResilience, App: -1, Label: label})
	}
}

// RunCancelled records one cancelled run.
func (m *Monitor) RunCancelled(label string) {
	if m == nil {
		return
	}
	m.RunsCancelled.Inc()
	m.journal("cancelled " + label)
}

// CacheRetry records one retried transient cache failure.
func (m *Monitor) CacheRetry(label string, attempt int, err error) {
	if m == nil {
		return
	}
	m.CacheRetries.Inc()
	m.journal(fmt.Sprintf("retry %d %s: %v", attempt, label, err))
}

// WatchdogTrip records one no-progress deadline expiry.
func (m *Monitor) WatchdogTrip(label string) {
	if m == nil {
		return
	}
	m.WatchdogTrips.Inc()
	m.journal("watchdog tripped " + label)
}

// Policy is a bounded retry schedule: Attempts tries total, sleeping
// BaseDelay·2^(attempt-1) capped at MaxDelay between them, each delay
// scaled by a uniform ±Jitter fraction drawn from a source seeded with
// Seed — so a given policy value produces the same delay sequence every
// run. The zero value is DefaultPolicy; in any other value a
// non-positive Attempts, BaseDelay or MaxDelay takes its default.
type Policy struct {
	Attempts  int
	BaseDelay time.Duration
	MaxDelay  time.Duration
	Jitter    float64 // fraction of the delay, e.g. 0.2 for ±20%
	Seed      int64
}

// DefaultPolicy is the stack-wide cache-I/O retry schedule: 3 attempts,
// 2ms base doubling to a 250ms cap, ±20% deterministic jitter.
func DefaultPolicy() Policy {
	return Policy{Attempts: 3, BaseDelay: 2 * time.Millisecond, MaxDelay: 250 * time.Millisecond, Jitter: 0.2, Seed: 1}
}

func (p Policy) withDefaults() Policy {
	d := DefaultPolicy()
	if p == (Policy{}) {
		return d
	}
	if p.Attempts <= 0 {
		p.Attempts = d.Attempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.Jitter < 0 {
		p.Jitter = 0
	}
	return p
}

// Delays returns the full backoff schedule the policy would sleep
// through (Attempts-1 entries) — the deterministic sequence tests pin.
func (p Policy) Delays() []time.Duration {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	out := make([]time.Duration, 0, p.Attempts-1)
	for a := 1; a < p.Attempts; a++ {
		out = append(out, p.delay(a, rng))
	}
	return out
}

func (p Policy) delay(attempt int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay << (attempt - 1)
	if d > p.MaxDelay || d <= 0 {
		d = p.MaxDelay
	}
	if p.Jitter > 0 {
		d = time.Duration(float64(d) * (1 + p.Jitter*(2*rng.Float64()-1)))
	}
	return d
}

// Retry runs fn up to p.Attempts times, sleeping the backoff schedule
// between failures (context-aware: a cancel during the sleep returns
// ctx.Err immediately). Each retried failure is reported to mon. The
// final error (or nil on success) is returned.
func (p Policy) Retry(ctx context.Context, label string, mon *Monitor, fn func() error) error {
	p = p.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	rng := rand.New(rand.NewSource(p.Seed))
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return cerr
		}
		if err = fn(); err == nil || attempt >= p.Attempts {
			return err
		}
		mon.CacheRetry(label, attempt, err)
		obs.TrailFrom(ctx).AddRetry()
		_, sp := obs.StartSpan(ctx, "retry",
			obs.A("label", label), obs.A("attempt", strconv.Itoa(attempt)))
		t := time.NewTimer(p.delay(attempt, rng))
		select {
		case <-ctx.Done():
			t.Stop()
			sp.End()
			return ctx.Err()
		case <-t.C:
			sp.End()
		}
	}
}

// Watchdog declares a run stuck when Pulse stops being called for longer
// than the deadline. The engine pulses it at every sampling-window
// boundary; Guard derives a context that is cancelled on a trip, which
// the same boundary check then observes — so a wedged window aborts the
// run in bounded time. A nil Watchdog absorbs every call.
type Watchdog struct {
	label    string
	deadline time.Duration
	poll     time.Duration
	mon      *Monitor
	onTrip   func()

	lastPulse atomic.Int64 // time.Time.UnixNano of the latest pulse
	tripped   atomic.Bool
	stop      chan struct{}
	stopped   atomic.Bool
}

// WatchdogOptions configures NewWatchdog.
type WatchdogOptions struct {
	// Label names the guarded run in incident reports.
	Label string
	// Deadline is how long the run may go without a pulse before it is
	// declared stuck (default 30s).
	Deadline time.Duration
	// Poll is how often the guard goroutine checks (default Deadline/4).
	Poll time.Duration
	// Mon receives the trip incident (nil discards it).
	Mon *Monitor
	// OnTrip, when non-nil, runs once on the trip, before the guarded
	// context is cancelled.
	OnTrip func()
}

// NewWatchdog builds a watchdog; it is inert until Guard starts its
// polling goroutine.
func NewWatchdog(o WatchdogOptions) *Watchdog {
	if o.Deadline <= 0 {
		o.Deadline = 30 * time.Second
	}
	if o.Poll <= 0 {
		o.Poll = o.Deadline / 4
	}
	w := &Watchdog{
		label:    o.Label,
		deadline: o.Deadline,
		poll:     o.Poll,
		mon:      o.Mon,
		onTrip:   o.OnTrip,
		stop:     make(chan struct{}),
	}
	w.lastPulse.Store(time.Now().UnixNano())
	return w
}

// Deadline returns the no-progress deadline the watchdog enforces (zero
// for a nil watchdog). The distributed-sweep coordinator derives its
// lease deadlines from it, so one knob governs both views of "stuck".
func (w *Watchdog) Deadline() time.Duration {
	if w == nil {
		return 0
	}
	return w.deadline
}

// Pulse records forward progress. Safe from any goroutine and on a nil
// watchdog; the engine calls it once per sampling window.
func (w *Watchdog) Pulse() {
	if w == nil {
		return
	}
	w.lastPulse.Store(time.Now().UnixNano())
}

// Tripped reports whether the deadline ever expired.
func (w *Watchdog) Tripped() bool {
	return w != nil && w.tripped.Load()
}

// Stop ends the Guard goroutine without cancelling the guarded context.
// Idempotent; a nil watchdog is a no-op.
func (w *Watchdog) Stop() {
	if w == nil || !w.stopped.CompareAndSwap(false, true) {
		return
	}
	close(w.stop)
}

// Guard derives a context from parent that is cancelled when the
// watchdog trips, and starts the polling goroutine that enforces the
// deadline. The returned cancel releases the goroutine and the context;
// call it when the run finishes. A nil watchdog returns the parent with
// a cancel that only releases the derived context.
func (w *Watchdog) Guard(parent context.Context) (context.Context, context.CancelFunc) {
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	if w == nil {
		return ctx, cancel
	}
	w.Pulse() // the clock starts when the guard does
	go func() {
		tick := time.NewTicker(w.poll)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-w.stop:
				return
			case <-tick.C:
				last := time.Unix(0, w.lastPulse.Load())
				if time.Since(last) > w.deadline {
					w.tripped.Store(true)
					w.mon.WatchdogTrip(w.label)
					obs.Instant(ctx, "watchdog-trip", obs.A("label", w.label))
					if w.onTrip != nil {
						w.onTrip()
					}
					cancel()
					return
				}
			}
		}
	}()
	return ctx, func() { w.Stop(); cancel() }
}
