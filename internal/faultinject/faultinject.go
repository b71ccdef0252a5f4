// Package faultinject is the deterministic fault-injection seam behind
// the resilience layer's chaos tests; only tests install an Injector.
// Production code calls out through the Hooks interface at its natural
// fault points — the result cache's and checkpoint store's reads and
// writes, the runner's task starts — and every call site guards the
// call with a single pointer-nil branch, so a nil Hooks (the production
// configuration) costs nothing. WindowBoundary has no call site in the
// engine: a dsweep worker handed an injector calls it from its OnWindow
// hook, once per simulated window. Outside the seam, Heartbeat drops and
// delays a distributed-sweep worker's heartbeats. Every fault lands in the orchestration around the engine,
// never in a TLP manager's decisions, so a fault can cost a retry or a
// cold run but cannot change a result.
//
// The Injector implementation draws every fault decision from one seeded
// math/rand source under a mutex: a given seed and a given sequence of
// hook calls always produce the same faults. Concurrent callers may
// interleave their draws differently between runs, so chaos tests that
// need exact reproducibility either serialize the faulted path or use
// probabilities of 0 and 1, which are order-independent.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ErrInjected marks a synthetic failure. Degradation paths test against
// it with errors.Is to distinguish injected faults from real ones.
var ErrInjected = errors.New("injected fault")

// Hooks is the seam production code calls at its fault points. All
// methods must be safe for concurrent use. A non-error hook signals a
// fault by panicking (TaskStart) or stalling (WindowBoundary).
type Hooks interface {
	// CacheRead may fail a cache entry read before the file is touched.
	CacheRead(key string) error
	// CacheWrite may fail a cache entry persist before the file is
	// written.
	CacheWrite(key string) error
	// TaskStart runs at the top of a pooled task; it may panic to
	// simulate a crashing simulation.
	TaskStart(label string)
	// WindowBoundary runs once per simulation sampling window; it may
	// sleep to simulate a stuck engine.
	WindowBoundary(cycle uint64)
}

// Config selects which faults an Injector produces and how often; the
// zero Config injects nothing.
type Config struct {
	// Seed initializes the decision source; equal seeds give equal fault
	// sequences for equal call sequences.
	Seed int64

	// CacheReadErrProb / CacheWriteErrProb are per-call probabilities of
	// an injected I/O error (0 disables, 1 always fails).
	CacheReadErrProb  float64
	CacheWriteErrProb float64

	// TaskPanicProb is the per-task probability of an injected panic;
	// MaxTaskPanics caps how many tasks are crashed in total (0 means
	// unlimited).
	TaskPanicProb float64
	MaxTaskPanics int

	// StallEveryWindows stalls every Nth WindowBoundary call for Stall
	// (0 disables stalls).
	StallEveryWindows uint64
	Stall             time.Duration

	// SlowIO adds latency to every cache read and write.
	SlowIO time.Duration

	// HeartbeatDropProb is the per-call probability that a distributed-
	// sweep worker's heartbeat is dropped before it reaches the
	// coordinator; HeartbeatDelay delays every heartbeat send first
	// (a congested control plane). Exercises lease expiry and straggler
	// reassignment in internal/dsweep.
	HeartbeatDropProb float64
	HeartbeatDelay    time.Duration
}

// Counts reports how many faults an Injector has produced.
type Counts struct {
	ReadErrs       uint64
	WriteErrs      uint64
	Panics         uint64
	Stalls         uint64
	HeartbeatDrops uint64
}

// Injector implements Hooks with seeded, counted fault decisions.
// All hook methods are nil-receiver-safe no-ops, so a typed-nil
// *Injector stored in a Hooks interface injects nothing instead of
// crashing (call sites should still prefer leaving Hooks nil).
type Injector struct {
	mu      sync.Mutex
	cfg     Config
	rng     *rand.Rand
	windows uint64
	counts  Counts
}

// New returns an Injector drawing decisions from cfg.Seed.
func New(cfg Config) *Injector {
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Counts returns a snapshot of the faults produced so far.
func (in *Injector) Counts() Counts {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.counts
}

// CacheRead fails with probability CacheReadErrProb, after SlowIO.
func (in *Injector) CacheRead(key string) error {
	if in == nil {
		return nil
	}

	in.mu.Lock()
	hit := in.cfg.CacheReadErrProb > 0 && in.rng.Float64() < in.cfg.CacheReadErrProb
	if hit {
		in.counts.ReadErrs++
	}
	slow := in.cfg.SlowIO
	in.mu.Unlock()
	if slow > 0 {
		time.Sleep(slow)
	}
	if hit {
		return fmt.Errorf("faultinject: cache read %s: %w", key, ErrInjected)
	}
	return nil
}

// CacheWrite fails with probability CacheWriteErrProb, after SlowIO.
func (in *Injector) CacheWrite(key string) error {
	if in == nil {
		return nil
	}

	in.mu.Lock()
	hit := in.cfg.CacheWriteErrProb > 0 && in.rng.Float64() < in.cfg.CacheWriteErrProb
	if hit {
		in.counts.WriteErrs++
	}
	slow := in.cfg.SlowIO
	in.mu.Unlock()
	if slow > 0 {
		time.Sleep(slow)
	}
	if hit {
		return fmt.Errorf("faultinject: cache write %s: %w", key, ErrInjected)
	}
	return nil
}

// TaskStart panics with probability TaskPanicProb, at most MaxTaskPanics
// times. The pool's runSafe recovers the panic into a task error.
func (in *Injector) TaskStart(label string) {
	if in == nil {
		return
	}

	in.mu.Lock()
	hit := in.cfg.TaskPanicProb > 0 &&
		(in.cfg.MaxTaskPanics == 0 || in.counts.Panics < uint64(in.cfg.MaxTaskPanics)) &&
		in.rng.Float64() < in.cfg.TaskPanicProb
	if hit {
		in.counts.Panics++
	}
	in.mu.Unlock()
	if hit {
		panic(fmt.Sprintf("faultinject: task %s: injected panic", label))
	}
}

// Heartbeat draws one control-plane fault for a distributed-sweep
// worker's heartbeat: every call sleeps HeartbeatDelay, and with
// probability HeartbeatDropProb the send is dropped (the worker skips
// it, exactly as if the datagram were lost). Not part of the Hooks seam;
// internal/dsweep type-asserts for it.
func (in *Injector) Heartbeat(worker string) error {
	if in == nil {
		return nil
	}

	in.mu.Lock()
	hit := in.cfg.HeartbeatDropProb > 0 && in.rng.Float64() < in.cfg.HeartbeatDropProb
	if hit {
		in.counts.HeartbeatDrops++
	}
	d := in.cfg.HeartbeatDelay
	in.mu.Unlock()
	if d > 0 {
		time.Sleep(d)
	}
	if hit {
		return fmt.Errorf("faultinject: heartbeat from %s: %w", worker, ErrInjected)
	}
	return nil
}

// WindowBoundary sleeps for Stall on every StallEveryWindows-th call.
func (in *Injector) WindowBoundary(cycle uint64) {
	if in == nil {
		return
	}

	in.mu.Lock()
	in.windows++
	stall := in.cfg.StallEveryWindows > 0 && in.windows%in.cfg.StallEveryWindows == 0
	if stall {
		in.counts.Stalls++
	}
	d := in.cfg.Stall
	in.mu.Unlock()
	if stall && d > 0 {
		time.Sleep(d)
	}
}
