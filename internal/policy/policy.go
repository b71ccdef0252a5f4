// Package policy is the sandbox between the cycle engine and TLP
// management policies: a Guard wraps any tlp.Manager so that a policy
// that panics or returns a malformed decision degrades the run to a safe
// fallback instead of killing it. The engine trusts its manager
// completely — one panicking OnSample used to abort an entire sweep — so
// ebsim -sandbox and sweep -sandbox run their policies behind a Guard.
//
// Fault handling follows a fallback ladder: the last decision the policy
// produced that validated clean, then Options.Safe, then every
// application at maxTLP (the hardware's do-no-harm default: it is the
// configuration the machine boots in). Every fault is counted, labeled,
// and journaled as obs.EvPolicyFault, so a degraded sweep is visible in
// the exit report and the provenance ledger rather than silently wrong.
package policy

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"ebm/internal/ckpt"
	"ebm/internal/config"
	"ebm/internal/obs"
	"ebm/internal/sim"
	"ebm/internal/simcache"
	"ebm/internal/spec"
	"ebm/internal/tlp"
)

// maxFaultLabels bounds the per-run fault label list; the counters keep
// counting past it.
const maxFaultLabels = 64

// Options configure a Guard.
type Options struct {
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
}

// Wrap sandboxes inner under the given options.
func Wrap(inner tlp.Manager, opts Options) *Guard {
	if inner == nil {
		panic("policy: Wrap(nil manager)")
	}
	g := &Guard{opts: opts, inner: inner}
	if o := opts.Obs; o != nil && o.Metrics != nil {
		g.faultC = o.Metrics.Counter("ebm_policy_faults_total",
			"Sandboxed TLP policy faults (panic, invalid decision).")
	}
	return g
}

var (
	_ tlp.Manager = (*Guard)(nil)
	_ tlp.Stater  = (*Guard)(nil)
)

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

// Execute runs rs with the guard as its policy; mutate (nil for none)
// adjusts the engine options first. It never forks from or writes
// checkpoints: a degraded prefix must never seed future forks. When any
// decision fell back, the result no longer matches its deterministic
// cache key, so Execute marks it volatile (returned, never cached) and
// adds each fault to the run's provenance trail.
func (g *Guard) Execute(ctx context.Context, rs spec.RunSpec, mutate func(*sim.Options)) (sim.Result, error) {
	res, err := ckpt.ExecuteWith(ctx, nil, rs, func(o *sim.Options) {
		if mutate != nil {
			mutate(o)
		}
		o.Manager = g
	})
	if g.Faults() > 0 {
		simcache.MarkVolatile(ctx)
		for _, l := range g.FaultLabels() {
			obs.TrailFrom(ctx).AddFault("policy: " + l)
		}
	}
	return res, err
}

// Initial implements tlp.Manager. It records the run's application count
// (the shape every later decision is validated against) and sandboxes
// the wrapped policy's Initial like any other decision.
func (g *Guard) Initial(numApps int) tlp.Decision {
	g.mu.Lock()
	g.numApps = numApps
	g.mu.Unlock()
	d, err := safeRun(func() tlp.Decision { return g.inner.Initial(numApps) })
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
	d, err := safeRun(func() tlp.Decision { return g.inner.OnSample(s) })
	return g.accept(d, err, s.Cycle)
}

// safeRun runs one decision, turning a panic into an error.
func safeRun(fn func() tlp.Decision) (d tlp.Decision, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	return fn(), nil
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
// and the adaptive search work through the sandbox.
func (g *Guard) StateBytes() ([]byte, error) {
	st, ok := g.inner.(tlp.Stater)
	if !ok {
		return nil, fmt.Errorf("policy: manager %q does not support checkpointing", g.inner.Name())
	}
	return st.StateBytes()
}

// SetStateBytes implements tlp.Stater by delegation.
func (g *Guard) SetStateBytes(b []byte) error {
	st, ok := g.inner.(tlp.Stater)
	if !ok {
		return fmt.Errorf("policy: manager %q does not support checkpointing", g.inner.Name())
	}
	return st.SetStateBytes(b)
}
