// Package resilience is the failure-handling layer of the execution
// stack (DESIGN.md §10): a Monitor that mirrors resilience incidents
// into the obs registry and journal, Retry, a fixed three-attempt
// schedule for transient store I/O, and a Watchdog that declares work
// stuck when its progress pulses stop for longer than a deadline (the
// distributed-sweep coordinator runs one per worker lease).
//
// Everything here is nil-safe: a nil Monitor discards incidents and a
// nil Watchdog absorbs pulses, so call sites carry no "is resilience
// on?" branches.
package resilience

import (
	"context"
	"fmt"
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

// retryDelays is the sleep before each retry: three attempts in all,
// 2ms then 4ms apart. A variable only so this package's tests can
// lengthen it.
var retryDelays = []time.Duration{2 * time.Millisecond, 4 * time.Millisecond}

// Retry runs fn up to three times, sleeping 2ms and then 4ms between
// failures (context-aware: a cancel during the sleep returns ctx.Err
// immediately). Each retried failure is reported to mon, counted on
// the context's provenance trail and timed as a retry span. The final
// error (or nil on success) is returned.
func Retry(ctx context.Context, label string, mon *Monitor, fn func() error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for attempt := 1; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := fn()
		if err == nil || attempt > len(retryDelays) {
			return err
		}
		mon.CacheRetry(label, attempt, err)
		obs.TrailFrom(ctx).AddRetry()
		_, sp := obs.StartSpan(ctx, "retry",
			obs.A("label", label), obs.A("attempt", strconv.Itoa(attempt)))
		t := time.NewTimer(retryDelays[attempt-1])
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

// Watchdog declares work stuck when Pulse stops being called for longer
// than the deadline. The distributed-sweep coordinator keeps one per
// worker, pulsed by the worker's leases, completions and advancing
// heartbeats, and expires the worker's leases on a trip. Guard derives a
// context that is cancelled on a trip; a simulation run under it (whose
// OnWindow hook pulses) aborts at its next window boundary. A nil
// Watchdog absorbs every call.
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
// watchdog.
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
