// Package policy is the sandbox between the cycle engine and TLP
// management policies: a Guard wraps any tlp.Manager so that a policy
// that panics, blows its per-decision time budget, or returns a
// malformed decision degrades the run to a safe fallback instead of
// killing it. The engine trusts its manager completely — one panicking
// OnSample used to abort an entire sweep — so third-party policies
// (spec.Register makes kinds pluggable) run behind a Guard.
//
// Fault handling follows a fallback ladder: the last decision the policy
// produced that validated clean, then Options.Safe, then every
// application at maxTLP (the hardware's do-no-harm default: it is the
// configuration the machine boots in). Every fault is counted, labeled,
// and journaled as obs.EvPolicyFault, so a degraded sweep is visible in
// the exit report and the provenance ledger rather than silently wrong.
package policy

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ebm/internal/config"
	"ebm/internal/obs"
	"ebm/internal/tlp"
)

// maxFaultLabels bounds the per-run fault label list; the counters keep
// counting past it.
const maxFaultLabels = 64

// Options configure a Guard.
type Options struct {
	// Budget is the wall-clock budget for one decision (Initial or
	// OnSample). Zero disables the budget: decisions run synchronously
	// on the engine goroutine with panic isolation only. A positive
	// budget runs decisions on a dedicated worker goroutine; a decision
	// that overruns is abandoned (the worker finishes it eventually and
	// the result is discarded) and the window falls back.
	Budget time.Duration

	// Safe is the fallback decision when no last-good decision exists
	// yet. Nil, or a Safe whose shape does not match the run's
	// application count, falls back to all-maxTLP.
	Safe *tlp.Decision

	// Obs receives EvPolicyFault journal events and the
	// ebm_policy_faults_total counter. Nil disables both.
	Obs *obs.Observer
}

// Guard wraps a tlp.Manager with the sandbox. It implements tlp.Manager
// and tlp.Stater, delegating Name and checkpoint state to the wrapped
// policy so reports, cache keys, and checkpoint compatibility are
// unchanged by sandboxing.
type Guard struct {
	opts  Options
	inner tlp.Manager

	mu       sync.Mutex
	numApps  int
	lastGood tlp.Decision
	labels   []string

	faults atomic.Uint64
	faultC *obs.Counter

	// Budget-mode worker. busy is true while a decision is in flight,
	// which includes a timed-out decision the worker is still finishing.
	calls     chan decisionCall
	busy      atomic.Bool
	closed    atomic.Bool
	closeOnce sync.Once
}

type decisionCall struct {
	fn    func() tlp.Decision
	reply chan decisionReply // buffered: a timed-out reply never blocks the worker
}

type decisionReply struct {
	d   tlp.Decision
	err error
}

// Wrap sandboxes inner under the given options.
func Wrap(inner tlp.Manager, opts Options) *Guard {
	if inner == nil {
		panic("policy: Wrap(nil manager)")
	}
	g := &Guard{opts: opts, inner: inner}
	if o := opts.Obs; o != nil && o.Metrics != nil {
		g.faultC = o.Metrics.Counter("ebm_policy_faults_total",
			"Sandboxed TLP policy faults (panic, blown time budget, invalid decision).")
	}
	if opts.Budget > 0 {
		g.calls = make(chan decisionCall)
		go g.worker()
	}
	return g
}

var (
	_ tlp.Manager = (*Guard)(nil)
	_ tlp.Stater  = (*Guard)(nil)
)

// Close stops the budget worker goroutine. Call it once the run is done
// (a Guard with no budget needs no Close). Decisions requested after
// Close fall back as faults.
func (g *Guard) Close() {
	g.closeOnce.Do(func() {
		g.closed.Store(true)
		if g.calls != nil {
			close(g.calls)
		}
	})
}

// Name implements tlp.Manager by delegation: reports and checkpoint
// envelopes see the wrapped policy's name.
func (g *Guard) Name() string { return g.inner.Name() }

// Faults returns how many decisions fell back.
func (g *Guard) Faults() uint64 { return g.faults.Load() }

// FaultLabels returns the recorded fault details (bounded; the count in
// Faults is authoritative).
func (g *Guard) FaultLabels() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]string(nil), g.labels...)
}

// Initial implements tlp.Manager. It records the run's application count
// (the shape every later decision is validated against) and sandboxes
// the wrapped policy's Initial like any other decision.
func (g *Guard) Initial(numApps int) tlp.Decision {
	g.mu.Lock()
	g.numApps = numApps
	g.mu.Unlock()
	d, err := g.run(func() tlp.Decision { return g.inner.Initial(numApps) })
	return g.accept(d, err, 0)
}

// OnSample implements tlp.Manager: run the policy inside the sandbox,
// validate what came back, and fall back on any fault.
func (g *Guard) OnSample(s tlp.Sample) tlp.Decision {
	g.mu.Lock()
	if g.numApps == 0 {
		g.numApps = len(s.Apps)
	}
	g.mu.Unlock()
	var fn func() tlp.Decision
	if g.opts.Budget > 0 {
		// The engine reuses s.Apps across windows; the worker may still
		// be reading a timed-out sample when the next window lands, so
		// budget-mode decisions get their own copy.
		cp := s
		cp.Apps = append([]tlp.AppSample(nil), s.Apps...)
		fn = func() tlp.Decision { return g.inner.OnSample(cp) }
	} else {
		fn = func() tlp.Decision { return g.inner.OnSample(s) }
	}
	d, err := g.run(fn)
	return g.accept(d, err, s.Cycle)
}

// run executes one decision under the sandbox: synchronously with panic
// isolation when there is no budget, on the worker with a deadline
// otherwise.
func (g *Guard) run(fn func() tlp.Decision) (tlp.Decision, error) {
	if g.opts.Budget <= 0 {
		r := safeRun(fn)
		return r.d, r.err
	}
	if g.closed.Load() {
		return tlp.Decision{}, fmt.Errorf("sandbox closed")
	}
	if !g.busy.CompareAndSwap(false, true) {
		// The worker is still inside a previous (timed-out) decision.
		return tlp.Decision{}, fmt.Errorf("previous decision still running past its %v budget", g.opts.Budget)
	}
	reply := make(chan decisionReply, 1)
	g.calls <- decisionCall{fn: fn, reply: reply}
	t := time.NewTimer(g.opts.Budget)
	defer t.Stop()
	select {
	case r := <-reply:
		return r.d, r.err
	case <-t.C:
		return tlp.Decision{}, fmt.Errorf("decision exceeded %v budget", g.opts.Budget)
	}
}

func (g *Guard) worker() {
	for c := range g.calls {
		r := safeRun(c.fn)
		g.busy.Store(false)
		c.reply <- r
	}
}

func safeRun(fn func() tlp.Decision) (r decisionReply) {
	defer func() {
		if p := recover(); p != nil {
			r = decisionReply{err: fmt.Errorf("panic: %v", p)}
		}
	}()
	return decisionReply{d: fn()}
}

// accept validates a decision and either records it as last-good or
// degrades to the fallback ladder.
func (g *Guard) accept(d tlp.Decision, err error, cycle uint64) tlp.Decision {
	if err == nil {
		err = validate(d, g.loadNumApps())
	}
	if err != nil {
		return g.fault(err, cycle)
	}
	g.mu.Lock()
	g.lastGood = d.Clone()
	g.mu.Unlock()
	return d
}

func (g *Guard) loadNumApps() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.numApps
}

// validate checks the decision's shape and bounds against the run.
func validate(d tlp.Decision, numApps int) error {
	if numApps > 0 && len(d.TLP) != numApps {
		return fmt.Errorf("decision has %d TLP values for %d applications", len(d.TLP), numApps)
	}
	for i, t := range d.TLP {
		if t < 1 || t > config.MaxTLP {
			return fmt.Errorf("app %d TLP %d out of range 1..%d", i, t, config.MaxTLP)
		}
	}
	if d.BypassL1 != nil && len(d.BypassL1) != len(d.TLP) {
		return fmt.Errorf("bypass mask has %d values for %d applications", len(d.BypassL1), len(d.TLP))
	}
	return nil
}

// fault counts, labels, and journals one fault, then walks the fallback
// ladder: last-good decision, Options.Safe, all-maxTLP.
func (g *Guard) fault(err error, cycle uint64) tlp.Decision {
	g.faults.Add(1)
	g.faultC.Inc()
	g.mu.Lock()
	if len(g.labels) < maxFaultLabels {
		g.labels = append(g.labels, err.Error())
	}
	fb := g.lastGood.Clone()
	numApps := g.numApps
	g.mu.Unlock()
	g.journal(obs.EvPolicyFault, cycle, err.Error())
	if fb.TLP != nil {
		return fb
	}
	if s := g.opts.Safe; s != nil && validate(*s, numApps) == nil {
		return s.Clone()
	}
	return tlp.NewDecision(numApps, config.MaxTLP)
}

func (g *Guard) journal(kind obs.EventKind, cycle uint64, label string) {
	if o := g.opts.Obs; o != nil && o.Journal != nil {
		o.Journal.Record(obs.Event{Kind: kind, Cycle: cycle, App: -1, Label: label})
	}
}

// StateBytes implements tlp.Stater by delegation, so checkpoint forking
// and the adaptive search work through the sandbox. While a timed-out
// decision is still running the state is unreadable (the policy may be
// mid-mutation); the checkpoint layer treats that like any other
// snapshot failure and stops writing.
func (g *Guard) StateBytes() ([]byte, error) {
	if g.opts.Budget > 0 && g.busy.Load() {
		return nil, fmt.Errorf("policy: state unavailable: a timed-out decision is still running")
	}
	st, ok := g.inner.(tlp.Stater)
	if !ok {
		return nil, fmt.Errorf("policy: manager %q does not support checkpointing", g.inner.Name())
	}
	return st.StateBytes()
}

// SetStateBytes implements tlp.Stater by delegation.
func (g *Guard) SetStateBytes(b []byte) error {
	if g.opts.Budget > 0 && g.busy.Load() {
		return fmt.Errorf("policy: state unavailable: a timed-out decision is still running")
	}
	st, ok := g.inner.(tlp.Stater)
	if !ok {
		return fmt.Errorf("policy: manager %q does not support checkpointing", g.inner.Name())
	}
	return st.SetStateBytes(b)
}
