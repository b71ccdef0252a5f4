package faultinject

import (
	"errors"
	"testing"
	"time"
)

// callSequence drives a fixed hook sequence and returns the error pattern
// it produced: the determinism contract says equal seeds give equal
// patterns.
func callSequence(in *Injector) []bool {
	var out []bool
	for i := 0; i < 50; i++ {
		out = append(out, in.CacheRead("k") != nil)
		out = append(out, in.CacheWrite("k") != nil)
	}
	return out
}

func TestSameSeedSameFaults(t *testing.T) {
	cfg := Config{Seed: 7, CacheReadErrProb: 0.3, CacheWriteErrProb: 0.3}
	a := callSequence(New(cfg))
	b := callSequence(New(cfg))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("fault sequences diverge at call %d", i)
		}
	}
	saw := false
	for _, hit := range a {
		saw = saw || hit
	}
	if !saw {
		t.Fatal("probability 0.3 over 100 draws produced no fault")
	}

	c := callSequence(New(Config{Seed: 8, CacheReadErrProb: 0.3, CacheWriteErrProb: 0.3}))
	same := true
	for i := range a {
		same = same && a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced identical 100-draw fault sequences")
	}
}

func TestErrorsWrapErrInjected(t *testing.T) {
	in := New(Config{CacheReadErrProb: 1, CacheWriteErrProb: 1})
	if err := in.CacheRead("a"); !errors.Is(err, ErrInjected) {
		t.Fatalf("CacheRead error %v does not wrap ErrInjected", err)
	}
	if err := in.CacheWrite("b"); !errors.Is(err, ErrInjected) {
		t.Fatalf("CacheWrite error %v does not wrap ErrInjected", err)
	}
	c := in.Counts()
	if c.ReadErrs != 1 || c.WriteErrs != 1 {
		t.Fatalf("counts = %+v, want one read and one write error", c)
	}
}

func TestMaxTaskPanicsCapsInjectedPanics(t *testing.T) {
	in := New(Config{Seed: 1, TaskPanicProb: 1, MaxTaskPanics: 2})
	panics := 0
	for i := 0; i < 10; i++ {
		func() {
			defer func() {
				if recover() != nil {
					panics++
				}
			}()
			in.TaskStart("t")
		}()
	}
	if panics != 2 {
		t.Fatalf("got %d injected panics, want exactly MaxTaskPanics=2", panics)
	}
	if c := in.Counts(); c.Panics != 2 {
		t.Fatalf("counts.Panics = %d, want 2", c.Panics)
	}
}

func TestWindowBoundaryStallsEveryNth(t *testing.T) {
	in := New(Config{StallEveryWindows: 3, Stall: time.Microsecond})
	for cyc := uint64(0); cyc < 10; cyc++ {
		in.WindowBoundary(cyc)
	}
	if c := in.Counts(); c.Stalls != 3 {
		t.Fatalf("10 windows with StallEveryWindows=3 produced %d stalls, want 3", c.Stalls)
	}
}

func TestZeroConfigInjectsNothing(t *testing.T) {
	in := New(Config{})
	for i := 0; i < 20; i++ {
		if err := in.CacheRead("k"); err != nil {
			t.Fatal(err)
		}
		if err := in.CacheWrite("k"); err != nil {
			t.Fatal(err)
		}
		in.TaskStart("t") // must not panic
		in.WindowBoundary(uint64(i))
	}
	if c := in.Counts(); c != (Counts{}) {
		t.Fatalf("zero config produced faults: %+v", c)
	}
}

// TestNilInjectorIsInertHooks pins the typed-nil contract: a nil
// *Injector stored in a Hooks interface value (a caller wiring an
// optional injector unconditionally) must inject nothing rather than
// dereference nil.
func TestNilInjectorIsInertHooks(t *testing.T) {
	var h Hooks = (*Injector)(nil)
	if err := h.CacheRead("k"); err != nil {
		t.Fatalf("CacheRead = %v", err)
	}
	if err := h.CacheWrite("k"); err != nil {
		t.Fatalf("CacheWrite = %v", err)
	}
	h.TaskStart("t")      // must not panic
	h.WindowBoundary(100) // must not panic
}

// TestHeartbeatDropsAndDelays covers the control-plane seam the
// distributed sweep's workers thread their beats through.
func TestHeartbeatDropsAndDelays(t *testing.T) {
	in := New(Config{Seed: 3, HeartbeatDropProb: 1})
	for i := 0; i < 5; i++ {
		err := in.Heartbeat("w")
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("drop probability 1 let a beat through: %v", err)
		}
	}
	if c := in.Counts(); c.HeartbeatDrops != 5 {
		t.Fatalf("HeartbeatDrops = %d, want 5", c.HeartbeatDrops)
	}

	in = New(Config{Seed: 3, HeartbeatDelay: 10 * time.Millisecond})
	start := time.Now()
	if err := in.Heartbeat("w"); err != nil {
		t.Fatalf("delay-only config dropped a beat: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("beat returned after %v, want the injected %v delay", d, 10*time.Millisecond)
	}

	if err := (*Injector)(nil).Heartbeat("w"); err != nil {
		t.Fatalf("nil injector dropped a beat: %v", err)
	}
}
