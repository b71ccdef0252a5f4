package obs

import (
	"fmt"
	"sync"
)

// EventKind classifies journal events.
type EventKind uint8

const (
	// EvWindow marks a completed sampling window (machine-wide; App is
	// -1). Window is the 1-based window ordinal, Cycle the end-of-window
	// core cycle, EB the machine total attained bandwidth fraction.
	EvWindow EventKind = iota
	// EvAppWindow carries one application's telemetry for the window it
	// precedes (the exporters group the N EvAppWindow events with the
	// EvWindow that follows them).
	EvAppWindow
	// EvDecision records a TLP-management decision being applied at the
	// warp schedulers (after the decision relay delay). Label renders the
	// full combination.
	EvDecision
	// EvWarmup marks the warmup boundary: metrics measurement starts here.
	EvWarmup
	// EvPhase records a policy phase transition (PBS init/scale/sweep/
	// tune/stable); Label is the new phase name.
	EvPhase
	// EvKernel marks a kernel relaunch detected for App in this window.
	EvKernel
	// EvProgress is generic long-job progress (grid sweeps): Done of
	// Total work items finished; Label is a human-readable line.
	EvProgress
	// EvResilience records a resilience-layer incident — a cancelled run,
	// a retried cache write, a watchdog trip; Label carries the detail.
	EvResilience
	// EvPolicyFault records the engine rejecting a TLP manager's
	// wrong-shaped decision at a window boundary and keeping the current
	// combination; Label carries the manager name and the decision's
	// shape.
	EvPolicyFault
	// EvDsweep records a distributed-sweep coordinator state transition —
	// a worker registering or deregistering, a lease granted, expired,
	// released, or reassigned, a completion accepted or fenced off; Label
	// carries the detail (worker, cell fingerprint, fencing token).
	EvDsweep
)

// String names the kind for CSV/debug output.
func (k EventKind) String() string {
	switch k {
	case EvWindow:
		return "window"
	case EvAppWindow:
		return "app-window"
	case EvDecision:
		return "decision"
	case EvWarmup:
		return "warmup"
	case EvPhase:
		return "phase"
	case EvKernel:
		return "kernel"
	case EvProgress:
		return "progress"
	case EvResilience:
		return "resilience"
	case EvPolicyFault:
		return "policy-fault"
	case EvDsweep:
		return "dsweep"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one structured journal entry. Only the fields relevant to the
// Kind are populated; App is -1 for machine-wide events.
type Event struct {
	Cycle  uint64
	Kind   EventKind
	App    int
	Window uint64 // window ordinal (EvWindow, EvAppWindow)
	Label  string // phase name, decision combo, progress line

	// Per-application window telemetry (EvAppWindow); EB doubles as the
	// machine total-BW on EvWindow.
	TLP int
	EB  float64
	BW  float64
	CMR float64
	IPC float64

	// Progress bookkeeping (EvProgress).
	Done, Total int
}

// Journal is an append-only structured event log. Recording is cheap (a
// mutex and a slice append), happens at window/decision granularity —
// never per cycle — and is safe from multiple goroutines (the grid
// builder records progress from its workers). Subscribers observe every
// event as it is recorded.
type Journal struct {
	mu     sync.Mutex
	events []Event
	subs   []func(Event)
}

// NewJournal returns an unbounded journal.
func NewJournal() *Journal { return &Journal{} }

// Record appends one event. A nil journal discards it.
func (j *Journal) Record(e Event) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.events = append(j.events, e)
	subs := j.subs
	j.mu.Unlock()
	for _, fn := range subs {
		fn(e)
	}
}

// Subscribe registers fn to be called synchronously for every subsequent
// Record. Subscribers must not call back into the journal.
func (j *Journal) Subscribe(fn func(Event)) {
	j.mu.Lock()
	// Copy-on-write so Record can release the lock before fanning out.
	subs := make([]func(Event), 0, len(j.subs)+1)
	subs = append(subs, j.subs...)
	j.subs = append(subs, fn)
	j.mu.Unlock()
}

// Events returns a snapshot copy of the stored events.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return append([]Event(nil), j.events...)
}

// Len returns the number of stored events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.events)
}

// Observer bundles the sinks the engine publishes into. Any field may be
// nil; the engine checks once per window. PhaseFn, when set, is polled at
// every window so phase transitions of the attached policy (e.g. PBS)
// land in the journal without coupling the policy to this package.
type Observer struct {
	Metrics *Registry
	Journal *Journal
	PhaseFn func() string
}

// Enabled reports whether the observer has any live sink.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Metrics != nil || o.Journal != nil)
}
