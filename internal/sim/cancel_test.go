package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"ebm/internal/faultinject"
	"ebm/internal/kernel"
	"ebm/internal/resilience"
	"ebm/internal/tlp"
)

func cancelOpts() Options {
	return Options{
		Config:       smallCfg(),
		Apps:         []kernel.Params{app("BLK")},
		TotalCycles:  120_000,
		WarmupCycles: 5_000,
		WindowCycles: 1_000,
	}
}

// TestRunContextBackgroundMatchesRun pins that the cancellation plumbing
// costs nothing semantically: a background-context run is bit-identical
// to the plain Run path.
func TestRunContextBackgroundMatchesRun(t *testing.T) {
	s1, err := New(cancelOpts())
	if err != nil {
		t.Fatal(err)
	}
	s2, err := New(cancelOpts())
	if err != nil {
		t.Fatal(err)
	}
	r1 := s1.Run()
	r2, err := s2.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("RunContext(Background) diverged from Run()")
	}
}

// TestCancelAbortsWithinOneWindow is the abort-latency bound of the
// cancellation contract: a cancel observed during window N stops the
// engine at that window's boundary, long before the 120k-cycle run would
// have finished.
func TestCancelAbortsWithinOneWindow(t *testing.T) {
	opts := cancelOpts()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const cancelWindow = 10
	windows := 0
	opts.OnWindow = func(tlp.Sample) {
		windows++
		if windows == cancelWindow {
			cancel()
		}
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// OnWindow fires at the boundary and the cancellation check runs at
	// the same boundary, so the engine must stop inside that very window.
	if got, bound := s.Cycle(), uint64(cancelWindow)*opts.WindowCycles; got >= bound {
		t.Fatalf("engine ran to cycle %d, want < %d (one window after the cancel)", got, bound)
	}
	if res.Windows != cancelWindow {
		t.Fatalf("partial result reports %d windows, want %d", res.Windows, cancelWindow)
	}
}

// TestCancelBeforeWarmupReturnsZeroMeasurements: cancelling before the
// warmup snapshot exists must not underflow the measurement window; the
// partial result carries the window count and nothing else.
func TestCancelBeforeWarmupReturnsZeroMeasurements(t *testing.T) {
	opts := cancelOpts()
	opts.WarmupCycles = 50_000 // cancel long before this
	ctx, cancel := context.WithCancel(context.Background())
	fired := false
	opts.OnWindow = func(tlp.Sample) {
		if !fired {
			fired = true
			cancel()
		}
	}
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res.Windows != 1 || res.Cycles != 0 || len(res.Apps) != 0 {
		t.Fatalf("pre-warmup partial = %+v, want windows only", res)
	}
}

// TestWatchdogAbortsStalledRun wires the full resilience loop through
// the OnWindow hook: an injected per-window stall stops the cycle
// counter advancing, the watchdog's progress deadline expires, the
// guarded context cancels, and the engine aborts at the next boundary
// check.
func TestWatchdogAbortsStalledRun(t *testing.T) {
	opts := cancelOpts()
	inj := faultinject.New(faultinject.Config{
		StallEveryWindows: 1,
		Stall:             300 * time.Millisecond,
	})
	w := resilience.NewWatchdog(resilience.WatchdogOptions{
		Label:    "stalled-run",
		Deadline: 50 * time.Millisecond,
		Poll:     10 * time.Millisecond,
	})
	opts.OnWindow = func(s tlp.Sample) {
		inj.WindowBoundary(s.Cycle) // stall first, then pulse
		w.Pulse()
	}
	ctx, cancel := w.Guard(context.Background())
	defer cancel()

	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := s.RunContext(ctx)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled from the watchdog trip", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("watchdog never aborted the stalled run")
	}
	if !w.Tripped() {
		t.Fatal("run aborted but the watchdog does not report a trip")
	}
}
